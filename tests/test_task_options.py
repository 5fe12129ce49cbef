"""The unified TaskOptions/ActorOptions submission layer.

Covers the options contract every surface shares: ``.options()`` returns
an immutable copy, overrides compose left-to-right, invalid values and
unknown names raise errors naming the offending option — parametrized
across every registered backend where submission is involved — plus the
decorator/options symmetry fixes and the runtime-epoch registration fix.
"""

import pytest

import repro
from repro.core.backend import registered_backends
from repro.core.task import TaskOptions
from repro.core.actors import ActorOptions

BACKENDS = tuple(sorted(registered_backends()))


@repro.remote
def identity(x):
    return x


@repro.remote
class Counter:
    def __init__(self, start=0):
        self.value = start

    def add(self, delta):
        self.value += delta
        return self.value


# ----------------------------------------------------------------------
# Pure options semantics (no runtime needed)
# ----------------------------------------------------------------------


class TestOptionsDataclasses:
    def test_merged_composes_left_to_right(self):
        opts = TaskOptions().merged(num_cpus=2).merged(num_cpus=3, num_gpus=1)
        assert (opts.num_cpus, opts.num_gpus) == (3, 1)

    def test_merged_returns_new_value(self):
        base = TaskOptions()
        derived = base.merged(num_returns=4)
        assert base.num_returns == 1
        assert derived.num_returns == 4

    def test_unknown_option_named(self):
        with pytest.raises(TypeError, match="no_such_option"):
            TaskOptions().merged(no_such_option=1)
        with pytest.raises(TypeError, match="num_returns"):
            ActorOptions().merged(num_returns=2)  # task-only knob

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_returns", 0),
            ("num_returns", -1),
            ("num_cpus", -1),
            ("num_gpus", -2),
            ("max_reconstructions", -1),
            ("duration", "fast"),
        ],
    )
    def test_invalid_value_names_option(self, field, value):
        with pytest.raises(ValueError, match=field):
            TaskOptions().merged(**{field: value})

    def test_zero_resources_rejected(self):
        with pytest.raises(ValueError, match="num_cpus=0, num_gpus=0"):
            TaskOptions(num_cpus=0, num_gpus=0)

    def test_actor_options_validate_resources_too(self):
        with pytest.raises(ValueError, match="num_cpus"):
            ActorOptions(num_cpus=-1)
        with pytest.raises(ValueError, match="name"):
            ActorOptions(name="")


# ----------------------------------------------------------------------
# Handle semantics: RemoteFunction / ActorClass as thin options wrappers
# ----------------------------------------------------------------------


class TestHandleOptions:
    def test_function_options_immutable_copy(self):
        configured = identity.options(num_cpus=2, num_returns=2)
        assert identity.submit_options.num_cpus == 1
        assert identity.submit_options.num_returns == 1
        assert configured.submit_options.num_cpus == 2
        assert configured.submit_options.num_returns == 2

    def test_actor_options_immutable_copy(self):
        named = Counter.options(name="a-counter", num_cpus=2)
        assert Counter.creation_options.name is None
        assert Counter.creation_options.num_cpus == 1
        assert named.creation_options.name == "a-counter"
        assert named.creation_options.num_cpus == 2

    def test_options_compose_left_to_right(self):
        variant = identity.options(duration=0.1).options(duration=0.2, num_cpus=2)
        assert variant.submit_options.duration == 0.2
        assert variant.submit_options.num_cpus == 2

    def test_function_invalid_options_named(self):
        with pytest.raises(ValueError, match="num_returns"):
            identity.options(num_returns=0)
        with pytest.raises(ValueError, match="num_cpus"):
            identity.options(num_cpus=-1)
        with pytest.raises(TypeError, match="definitely_unknown"):
            identity.options(definitely_unknown=True)

    def test_actor_invalid_options_named(self):
        with pytest.raises(ValueError, match="num_gpus"):
            Counter.options(num_gpus=-1)
        with pytest.raises(TypeError, match="duration"):
            Counter.options(duration=0.5)  # sim-duration is task-only

    def test_decorator_accepts_all_task_options(self):
        # The configured decorator form used to silently drop
        # placement_hint/name; now it is the same TaskOptions path.
        @repro.remote(name="renamed", num_returns=2, max_reconstructions=1)
        def pair(x):
            return x, x

        assert pair.name == "renamed"
        assert pair.submit_options.num_returns == 2
        assert pair.submit_options.max_reconstructions == 1

    def test_decorator_rejects_actor_invalid_options_by_name(self):
        with pytest.raises(TypeError, match="num_returns"):
            @repro.remote(num_returns=2)
            class Impossible:
                pass


# ----------------------------------------------------------------------
# Submission-time semantics, across every registered backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestOptionsAcrossBackends:
    def test_option_errors_precede_submission(self, backend):
        repro.init(backend=backend, num_nodes=1, num_cpus=1, seed=5)
        try:
            with pytest.raises(ValueError, match="num_returns"):
                identity.options(num_returns=0)
            with pytest.raises(ValueError, match="num_cpus"):
                identity.options(num_cpus=-1)
            with pytest.raises(TypeError, match="mystery"):
                identity.options(mystery=1)
            # The handle still works after rejected overrides.
            assert repro.get(identity.remote(11)) == 11
        finally:
            repro.shutdown()

    def test_name_override_shows_in_task_error(self, backend):
        repro.init(backend=backend, num_nodes=1, num_cpus=1, seed=5)
        try:
            @repro.remote
            def boom():
                raise RuntimeError("bang")

            renamed = boom.options(name="renamed_boom")
            with pytest.raises(repro.TaskError) as err:
                repro.get(renamed.remote())
            assert err.value.function_name == "renamed_boom"
        finally:
            repro.shutdown()


# ----------------------------------------------------------------------
# Registration epochs (the id(runtime)-reuse fix)
# ----------------------------------------------------------------------


class TestRegistrationEpochs:
    def test_registrations_cleared_on_shutdown(self):
        repro.init(backend="local", num_nodes=1, num_cpus=1, seed=9)
        runtime = repro.get_runtime()
        assert repro.get(identity.remote(1)) == 1
        epoch = runtime._repro_epoch
        assert epoch in identity._registrations
        repro.shutdown()
        assert epoch not in identity._registrations

    def test_epochs_never_reused_across_runtimes(self):
        repro.init(backend="local", num_nodes=1, num_cpus=1, seed=9)
        first_epoch = repro.get_runtime()._repro_epoch
        assert repro.get(identity.remote(2)) == 2
        repro.shutdown()
        repro.init(backend="local", num_nodes=1, num_cpus=1, seed=9)
        second_epoch = repro.get_runtime()._repro_epoch
        try:
            assert second_epoch != first_epoch
            # A fresh registration is made for the new runtime; the call
            # resolves against it, not a stale function table entry.
            assert repro.get(identity.remote(3)) == 3
            assert second_epoch in identity._registrations
        finally:
            repro.shutdown()

    def test_stale_address_reuse_cannot_alias(self):
        """Two runtimes at the same memory address get distinct epochs."""
        from repro.api.remote_function import _runtime_epoch

        class FakeRuntime:
            pass

        a = FakeRuntime()
        epoch_a = _runtime_epoch(a)
        address = id(a)
        del a
        b = FakeRuntime()  # may or may not reuse the address; force the id
        epoch_b = _runtime_epoch(b)
        assert epoch_a != epoch_b
        assert isinstance(address, int)  # the old key style, now unused
