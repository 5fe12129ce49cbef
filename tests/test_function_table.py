"""The function table (``repro.proc.messages.FunctionTable``), driven
with no process: what a function id means on each end of a pipe, and
what crosses it — once.

Two of the cases are bugs earlier PRs found by accident while testing
something else, kept here as inputs: a worker-born function whose first
submission *spills* (the driver must learn its row from the notice that
routes the call exactly as from one that mirrors it, decode the
fast-path entries that follow without one, and ship the code on to a
second worker), and
a function handle that reached a worker by value (the sender's table
rows and registrations do not travel with it).
"""

import pickle
import time

import pytest

import repro
from played_pipe import PlayedPipe, start_reader
from repro.core.object_ref import ObjectRef
from repro.errors import BackendError
from repro.proc import messages as msg
from repro.proc.worker import ProcWorker
from repro.utils.ids import IDGenerator
from repro.utils.serialization import deserialize_portable, serialize_portable


def double(x):
    return 2 * x


#: The played pipes of the workers a test made, hung up after it.
_pipes: list = []


@pytest.fixture(autouse=True)
def _hang_up_played_pipes():
    yield
    while _pipes:
        _pipes.pop().hang_up()


@pytest.fixture
def counted(monkeypatch):
    """How often code was pickled and unpickled by any table."""
    calls = {"serialize": 0, "deserialize": 0}

    def serialize(value):
        calls["serialize"] += 1
        return serialize_portable(value)

    def deserialize(data):
        calls["deserialize"] += 1
        return deserialize_portable(data)

    monkeypatch.setattr(msg, "serialize_portable", serialize)
    monkeypatch.setattr(msg, "deserialize_portable", deserialize)
    return calls


def _worker(index=0):
    """A worker over a played pipe (the driver's replies laid out in
    advance), its reader running."""
    pipe = PlayedPipe()
    _pipes.append(pipe)
    worker = ProcWorker(pipe, index=index, seed=5, cache_capacity=1 << 20)
    start_reader(worker)
    return worker, pipe


def _spill(worker, pipe, template, ids, missing):
    """One nested call that cannot stay local (its argument is not
    resident on the worker): what the SUBMIT_LOCAL notice that routes it
    says of it — its function, the table that came with it, its
    options."""
    ref = worker.proxy.submit_call(template, (missing,), {})
    assert isinstance(ref, ObjectRef)
    worker._flush_notices()
    _tag, _kept, table, _escaped, (entry,) = pipe.sent[-1]
    return {
        "function_hex": entry[1],
        "functions": table,
        "options": (entry[5] or {}).get("options"),
    }


def test_code_is_serialized_once_and_unpickled_once(counted):
    ours, theirs = msg.FunctionTable(), msg.FunctionTable()
    ours.add("f" * 40, "double", double)
    assert "f" * 40 in ours and len(ours) == 1 and "e" * 40 not in ours
    rows = ours.rows(["f" * 40])
    assert ours.rows(["f" * 40]) == rows and ours.code("f" * 40) is rows["f" * 40][1]
    assert rows["f" * 40][0] == "double"
    assert counted == {"serialize": 1, "deserialize": 0}
    # The owner runs its own callable: nothing is unpickled for that.
    assert ours.callable("f" * 40) is double
    theirs.learn(rows)
    # Telling a row on (a steal, a crash replay) costs the relay nothing.
    assert theirs.rows(["f" * 40]) == rows
    assert counted == {"serialize": 1, "deserialize": 0}
    function = theirs.callable("f" * 40)
    assert theirs.callable("f" * 40) is function and function(21) == 42
    assert counted == {"serialize": 1, "deserialize": 1}


def test_the_first_word_on_an_id_stands():
    table = msg.FunctionTable()
    table.add("a" * 40, "double", double)
    table.learn({"a" * 40: ("other", b"not even a pickle")})
    assert table.callable("a" * 40) is double
    assert table.template("a" * 40).function_name == "double"


def test_a_row_with_neither_callable_nor_code_cannot_ship():
    table = msg.FunctionTable()
    table.add("b" * 40, "ghost")
    with pytest.raises(BackendError, match="'ghost' not registered"):
        table.rows(["b" * 40])
    with pytest.raises(KeyError):
        table.template("c" * 40)


def test_templates_are_built_once_per_option_set():
    table = msg.FunctionTable()
    table.learn({"d" * 40: ("double", b"code")})
    plain = table.template("d" * 40)
    assert table.template("d" * 40) is plain and plain.wire_options is None
    named = repro.remote(double).options(name="shown", num_returns=2).submit_options
    variant = table.template("d" * 40, named)
    assert table.template("d" * 40, named) is variant is not plain
    assert (variant.function_name, plain.function_name) == ("shown", "double")
    assert variant.function_id == plain.function_id


@pytest.mark.parametrize("first", ["spill", "fast_path"])
def test_a_worker_born_function_is_learnt_from_whichever_message_names_it_first(
    first, counted
):
    """The historical find: the first submission spilled, the driver
    registered the code but no template, and the fast-path notice that
    followed — rightly without a row — hung the job on a ``KeyError``."""
    ids = IDGenerator(namespace="table-test")
    worker, pipe = _worker()
    template = repro.remote(double)._bind(worker.proxy)
    function_hex = template.function_id.hex
    missing = ObjectRef._uncounted(ids.object_id())
    driver, told = msg.FunctionTable(), set()  # and what worker 0 has

    if first == "spill":
        payload = _spill(worker, pipe, template, ids, missing)
        driver.learn(payload["functions"], told)
        assert worker.try_submit_local(template, (1,), {}) is not None
        worker._flush_notices()
        _tag, entries, table = pipe.sent[-1]
        assert table == {}  # told once: the notice names it without a row
    else:
        assert worker.try_submit_local(template, (1,), {}) is not None
        worker._flush_notices()
        _tag, entries, table = pipe.sent[-1]
        driver.learn(table, told)
        payload = _spill(worker, pipe, template, ids, missing)
        assert payload["functions"] == {}  # and the spill that follows, too
    assert told == {function_hex} == worker.functions_sent

    # Either way the driver can decode the fast-path entry ...
    spec = msg.decode_entry(entries[0], driver)
    assert (spec.function_name, spec.function_id) == ("double", template.function_id)
    assert driver.template(function_hex, payload["options"]).function_name == "double"
    # ... and ship the function, code and all, to a worker that never
    # saw it (a steal, a crash replay), which runs it from that row.
    second, second_pipe = _worker(index=1)
    second._start_executor()
    second_pipe.put((msg.TASK, [entries[0]], driver.rows([function_hex])))
    deadline = time.monotonic() + 10.0
    while not [m for m in second_pipe.sent if m[0] == msg.DONE]:
        assert time.monotonic() < deadline, "the frame never ran"
        time.sleep(0.001)
    (done,) = [m for m in second_pipe.sent if m[0] == msg.DONE]
    (_task_hex, blobs, failed, _seconds), = done[1]
    assert not failed and deserialize_portable(blobs[0]) == 2
    assert second.functions_sent == {function_hex}  # the driver has it: it sent it
    # One pickling (on the worker that owns the callable), one
    # unpickling (on the one that ran it from code).
    assert counted == {"serialize": 1, "deserialize": 1}


def test_a_function_that_spills_twice_crosses_the_pipe_as_code_once():
    ids = IDGenerator(namespace="table-test")
    worker, pipe = _worker()
    template = repro.remote(double)._bind(worker.proxy)
    missing = ObjectRef._uncounted(ids.object_id())
    first = _spill(worker, pipe, template, ids, missing)
    second = _spill(worker, pipe, template, ids, missing)
    function_hex = template.function_id.hex
    assert first["function_hex"] == second["function_hex"] == function_hex
    name, code = first["functions"][function_hex]
    assert name == "double" and deserialize_portable(code)(4) == 8
    assert second["functions"] == {}
    assert code not in pickle.dumps(second) and code in pickle.dumps(first)


def test_a_function_told_by_the_driver_is_not_told_back():
    """What a frame's table brought counts as told: a worker that got a
    peer's function from the driver submits it without a row."""
    owner = msg.FunctionTable()
    owner.add("9" * 40, "double", double)
    worker, pipe = _worker()
    worker.functions.learn(owner.rows(["9" * 40]), worker.functions_sent)
    ids = IDGenerator(namespace="table-test")
    template = worker.functions.template("9" * 40)
    payload = _spill(
        worker, pipe, template, ids, ObjectRef._uncounted(ids.object_id())
    )
    assert payload["functions"] == {}


def test_a_handle_that_arrived_by_value_registers_from_scratch():
    """The other historical find: a ``RemoteFunction`` pickled by value
    used to carry the driver's registrations (its id for the function)
    into the worker, which then submitted under an id it had announced
    to nobody.  Its table rows do not travel with it: on arrival it is
    a new function to the worker, and is told like one."""
    handle = repro.remote(double)
    sender, _ = _worker()
    sent_template = handle._bind(sender.proxy)
    assert sender.rows_to_tell(sent_template)  # registered and told there
    copy = deserialize_portable(serialize_portable(handle))
    assert copy._registrations == {} and copy._templates == {}
    receiver, pipe = _worker(index=1)
    template = copy._bind(receiver.proxy)
    assert template.function_id != sent_template.function_id
    assert template.function_id.hex not in receiver.functions
    assert receiver.try_submit_local(template, (3,), {}) is not None
    receiver._flush_notices()
    _tag, entries, table = pipe.sent[-1]
    assert list(table) == [template.function_id.hex] == [entries[0][1]]
    assert deserialize_portable(table[entries[0][1]][1])(3) == 6
