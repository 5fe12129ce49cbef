"""A seeded generator of nested task trees with the sim as its oracle.

ROADMAP item 1(a), the "nested submits that block on their children"
part: a random tree — depth at most 3, at most 8 children per parent —
whose parents submit leaves, ``num_returns=2`` calls, tasks that raise,
children that take an earlier sibling's ref inside a list (so the ref
escapes the parent's process), subtrees, and at most one child they
cancel right away; then they ``get`` or ``wait(k)`` on random subsets of
their children's refs.  Each program runs on ``proc`` and ``dist`` and is
compared with the fault-free ``sim`` run of the same program: the root's
value (which holds every value, error type and ``wait`` count its
parents saw) must be the oracle's, and the marker file each execution
appends to must show every task ran at most ``1 + lineage_replays``
times.  This is the path where a worker answers a get from the results
of the children it just ran inline — and where an escaped ref, a failed
child or a cancel must make it ask the driver instead.

Trees cannot deadlock: a parent waits only for its own children, and a
child waits only for a sibling submitted before it.  A ``get`` subset
holds at most one ref that ends in an error, so which error it raises
does not depend on which one a backend meets first.

They also stay clear of the open finding of ROADMAP item 1(a), which
this generator met again without any actor (seed 199 of an earlier
draw of the slow tier, about one fresh pool in ten): a worker blocked in a
``get`` that waits through the driver is fed its own queued tasks back
*on top of* the blocked task, so a child that waits for a sibling that
itself blocks can land above that sibling on one stack, and neither
ever finishes.  So the sibling a boxed child waits for is one that
never blocks (a leaf, a pair, a failing or a cancelled child).
"""

import functools
import os
import random
import tempfile

import pytest

import repro
from repro.errors import GetTimeoutError, ReproError

pytestmark = pytest.mark.timeout(300)

POOLS = {
    "proc": {"backend": "proc", "num_workers": 2},
    "dist": {"backend": "dist", "num_nodes": 2, "num_cpus": 1},
}

FIXED_SEEDS = tuple(range(10))
SLOW_SEEDS = tuple(range(100, 200))

#: Wall-clock seconds one program may take on a live backend before it
#: counts as hung (they take well under one).
PROGRAM_DEADLINE_S = 30.0


def _mark(directory, path):
    with open(os.path.join(directory, path), "a") as handle:
        handle.write("run\n")


def _runs(directory):
    """Executions per task path in one program's directory."""
    runs = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name)) as handle:
            runs[name] = len(handle.readlines())
    return runs


@repro.remote
def leaf(directory, path, x):
    _mark(directory, path)
    return x


@repro.remote(num_returns=2)
def pair(directory, path, x):
    _mark(directory, path)
    return x, -x


@repro.remote
def fail(directory, path, x):
    _mark(directory, path)
    raise ValueError(f"child {x} fails")


@repro.remote
def boxed(directory, path, box):
    """A child handed a sibling's ref inside a list (not as an argument,
    which would be resolved for it): it escapes, and is waited for here."""
    _mark(directory, path)
    try:
        value = yield repro.Get(box[0])
    except ReproError as exc:
        value = type(exc).__name__
    return ["boxed", value]


@repro.remote
def node(directory, path, spec):
    """A parent: submit the children of ``spec``, then run its steps."""
    _mark(directory, path)
    refs, cancelled = [], []
    for index, (kind, arg) in enumerate(spec["children"]):
        where = f"{path}.{index}"
        if kind == "leaf":
            refs.append(leaf.remote(directory, where, arg))
        elif kind == "pair":
            refs.extend(pair.remote(directory, where, arg))
        elif kind == "fail":
            refs.append(fail.remote(directory, where, arg))
        elif kind == "boxed":
            refs.append(boxed.remote(directory, where, [refs[arg]]))
        elif kind == "node":
            refs.append(node.remote(directory, where, arg))
        else:  # "cancel": cancelled before anything waits for it
            ref = leaf.remote(directory, where, arg)
            cancelled.append((yield repro.Cancel(ref)))
            refs.append(ref)
    seen = [cancelled]
    for step in spec["steps"]:
        subset = [refs[position] for position in step[1]]
        if step[0] == "get":
            try:
                seen.append((yield repro.Get(subset)))
            except ReproError as exc:
                seen.append(type(exc).__name__)
        else:
            # At least k are ready; which, and how many more, is timing.
            ready, pending = yield repro.Wait(subset, num_returns=step[2])
            seen.append((len(ready) >= step[2], len(ready) + len(pending)))
    return seen


def generate(seed):
    """The root's spec: ``{"children": [(kind, arg), ...], "steps":
    [("get", positions) | ("wait", positions, k), ...]}``.  A position
    indexes the parent's flat list of child refs (a ``pair`` adds two);
    ``boxed``'s arg is a position, ``node``'s a spec, the others' a
    value."""
    rng = random.Random(seed)
    return _parent(rng, rng.randint(2, 3))


def _parent(rng, depth):
    children, failing, plain, positions = [], set(), [], 0
    for _ in range(rng.randint(1, 8)):
        kind = rng.choices(
            ("leaf", "pair", "fail", "boxed", "node", "cancel"),
            weights=(30, 12, 8, 12, 30 if depth > 1 else 0, 8),
        )[0]
        if kind == "cancel" and any(k == "cancel" for k, _ in children):
            kind = "leaf"
        if kind == "boxed" and not plain:
            kind = "leaf"
        if kind == "boxed":
            children.append((kind, rng.choice(plain)))
        elif kind == "node":
            children.append((kind, _parent(rng, depth - 1)))
        else:
            children.append((kind, rng.randint(1, 999)))
        width = 2 if kind == "pair" else 1
        if kind in ("fail", "cancel"):
            failing.add(positions)
        if kind not in ("boxed", "node"):
            plain.extend(range(positions, positions + width))
        positions += width
    steps = []
    for _ in range(rng.randint(1, 3)):
        chosen = rng.sample(range(positions), k=rng.randint(1, positions))
        if rng.random() < 0.6:
            errors = [p for p in chosen if p in failing]
            chosen = [p for p in chosen if p not in failing] + errors[:1]
            steps.append(("get", chosen))
        else:
            steps.append(("wait", chosen, rng.randint(0, len(chosen))))
    return {"children": children, "steps": steps}


def tasks_in(spec):
    """How many tasks a tree runs at most (the root counts)."""
    return 1 + sum(
        tasks_in(arg) if kind == "node" else 1 for kind, arg in spec["children"]
    )


def run_program(seed, directory, deadline_s):
    """The root's value, or the type of its error, or ``"hung"``."""
    os.makedirs(directory)
    try:
        return repro.get(
            node.remote(directory, "root", generate(seed)), timeout=deadline_s
        )
    except GetTimeoutError:
        return "hung"
    except ReproError as exc:
        return type(exc).__name__


@functools.lru_cache(maxsize=None)
def oracle(seed):
    """The fault-free sim run of program ``seed``."""
    repro.init(backend="sim", num_nodes=1, num_cpus=2, seed=seed)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            directory = os.path.join(scratch, "markers")
            return run_program(seed, directory, deadline_s=3600.0)  # virtual
    finally:
        repro.shutdown()


def mismatches(seeds, backend, tmp_path):
    """Seeds whose run on ``backend`` differs from the oracle's, with
    what differed: the root's value, or a task that ran too often."""
    expected = {seed: oracle(seed) for seed in seeds}
    runtime = repro.init(seed=17, **POOLS[backend])
    differing = {}
    try:
        for seed in seeds:
            directory = str(tmp_path / f"{backend}-{seed}")
            got = run_program(seed, directory, PROGRAM_DEADLINE_S)
            if got != expected[seed]:
                differing[seed] = ("value", got, expected[seed])
                continue
            allowed = 1 + runtime.stats()["lineage_replays"]
            too_often = {
                path: runs for path, runs in _runs(directory).items()
                if runs > allowed
            }
            if too_often:
                differing[seed] = ("runs", too_often)
    finally:
        repro.shutdown()
    return differing


def test_the_generator_keeps_its_promises():
    """Depth and fan-out in range, every boxed ref earlier and of a child
    that does not block, at most one cancel per parent and one failing
    ref per get — and the fixed seeds draw every kind of child and both
    kinds of step."""
    kinds, step_kinds, sizes = set(), set(), []

    def check(spec, depth):
        assert 1 <= len(spec["children"]) <= 8
        assert depth >= 1
        positions, failing, blocking = 0, set(), set()
        for kind, arg in spec["children"]:
            kinds.add(kind)
            if kind == "boxed":
                assert 0 <= arg < positions and arg not in blocking
            if kind == "node":
                check(arg, depth - 1)
            if kind in ("fail", "cancel"):
                failing.add(positions)
            if kind in ("boxed", "node"):
                blocking.add(positions)
            positions += 2 if kind == "pair" else 1
        assert sum(kind == "cancel" for kind, _ in spec["children"]) <= 1
        for step in spec["steps"]:
            step_kinds.add(step[0])
            assert len(set(step[1])) == len(step[1])
            assert all(0 <= p < positions for p in step[1])
            if step[0] == "get":
                assert len(failing & set(step[1])) <= 1
            else:
                assert 0 <= step[2] <= len(step[1])

    for seed in FIXED_SEEDS:
        spec = generate(seed)
        check(spec, 3)
        sizes.append(tasks_in(spec))
    assert kinds == {"leaf", "pair", "fail", "boxed", "node", "cancel"}
    assert step_kinds == {"get", "wait"}
    assert max(sizes) > 20
    assert generate(7) == generate(7)


@pytest.mark.parametrize("backend", tuple(POOLS))
def test_fixed_seeds_match_the_sim_oracle(backend, tmp_path):
    assert mismatches(FIXED_SEEDS, backend, tmp_path) == {}


@pytest.mark.slow
@pytest.mark.parametrize("backend", tuple(POOLS))
def test_more_seeds_match_the_sim_oracle(backend, tmp_path):
    assert mismatches(SLOW_SEEDS, backend, tmp_path) == {}
