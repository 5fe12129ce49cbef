"""Edge-case tests for the public API surface on both backends."""

import pytest

import repro
from repro.core.object_ref import ObjectRef
from repro.errors import BackendError


@repro.remote
def identity(x):
    return x


class TestGetWaitEdges:
    def test_get_rejects_non_refs(self, sim_runtime):
        with pytest.raises(TypeError, match="ObjectRef"):
            repro.get("not-a-ref")
        with pytest.raises(TypeError, match="ObjectRef"):
            repro.get([identity.remote(1), 42])

    def test_get_empty_list(self, sim_runtime):
        assert repro.get([]) == []

    def test_get_same_ref_twice(self, sim_runtime):
        ref = identity.remote(9)
        assert repro.get([ref, ref]) == [9, 9]
        assert repro.get(ref) == 9  # and again after resolution

    def test_wait_empty_list(self, sim_runtime):
        ready, pending = repro.wait([], num_returns=0)
        assert ready == [] and pending == []

    def test_wait_duplicate_refs(self, sim_runtime):
        ref = identity.remote(1)
        ready, pending = repro.wait([ref, ref], num_returns=2)
        assert ready == [ref, ref]
        assert pending == []

    def test_wait_num_returns_zero_polls(self, sim_runtime):
        slow = identity.options(duration=10.0).remote(1)
        ready, pending = repro.wait([slow], num_returns=0, timeout=0)
        assert ready == []
        assert pending == [slow]

    def test_wait_all_then_values(self, sim_runtime):
        refs = [identity.options(duration=0.01 * i).remote(i) for i in range(5)]
        ready, pending = repro.wait(refs, num_returns=5)
        assert pending == []
        assert repro.get(ready) == [0, 1, 2, 3, 4]

    def test_sleep_negative_rejected(self, sim_runtime):
        with pytest.raises(ValueError):
            repro.sleep(-1.0)

    def test_now_monotonic(self, sim_runtime):
        a = repro.now()
        repro.get(identity.remote(1))
        b = repro.now()
        repro.sleep(0.5)
        c = repro.now()
        assert a < b < c


class TestRemoteFunctionEdges:
    def test_bare_and_configured_decorators(self, sim_runtime):
        @repro.remote
        def bare(x):
            return x

        @repro.remote(num_cpus=2)
        def configured(x):
            return x

        assert repro.get(bare.remote(1)) == 1
        assert repro.get(configured.remote(2)) == 2

    def test_decorating_non_callable_rejected(self):
        with pytest.raises(TypeError):
            repro.RemoteFunction("not callable")

    def test_options_does_not_mutate_original(self, sim_runtime):
        timed = identity.options(duration=5.0)
        assert identity.submit_options.duration is None
        assert timed.submit_options.duration == 5.0

    def test_options_chains(self, sim_runtime):
        variant = identity.options(duration=0.1).options(num_cpus=2)
        assert variant.submit_options.duration == 0.1
        assert variant.submit_options.resources.num_cpus == 2

    def test_local_call_runs_in_process(self):
        assert identity.local(7) == 7

    def test_invalid_resources_rejected(self):
        with pytest.raises(ValueError):
            identity.options(num_cpus=-1)
        with pytest.raises(ValueError):
            identity.options(num_cpus=0, num_gpus=0)

    def test_function_metadata_preserved(self):
        @repro.remote
        def documented(x):
            """The docstring."""
            return x

        assert documented.__doc__ == "The docstring."
        assert documented.name == "documented"


class TestLifecycleEdges:
    def test_shutdown_idempotent(self):
        repro.init(backend="sim", num_nodes=1)
        repro.shutdown()
        repro.shutdown()  # no error

    def test_use_after_shutdown_rejected(self):
        runtime = repro.init(backend="sim", num_nodes=1)
        repro.shutdown()
        with pytest.raises(BackendError):
            runtime.get(ObjectRef(runtime.ids.object_id()))

    def test_sequential_runtimes_isolated(self):
        repro.init(backend="sim", num_nodes=1, seed=1)
        first = identity.remote(1)
        assert repro.get(first) == 1
        repro.shutdown()
        repro.init(backend="sim", num_nodes=1, seed=2)
        assert repro.get(identity.remote(2)) == 2
        repro.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            repro.init(backend="quantum")

    def test_invalid_scheduler_mode_rejected(self):
        with pytest.raises(ValueError, match="scheduler_mode"):
            repro.init(backend="sim", scheduler_mode="psychic")

    def test_runtime_accessor_requires_init(self):
        with pytest.raises(BackendError, match="init"):
            repro.get_runtime()


class TestLocalBackendEdges:
    def test_get_rejects_non_refs(self):
        repro.init(backend="local", num_nodes=1, num_cpus=2)
        with pytest.raises(TypeError, match="ObjectRef"):
            repro.get(123)
        repro.shutdown()

    def test_wait_validation(self):
        repro.init(backend="local", num_nodes=1, num_cpus=2)
        refs = [identity.remote(1)]
        with pytest.raises(ValueError):
            repro.wait(refs, num_returns=5)
        repro.shutdown()

    def test_oversubscribed_resources_rejected(self):
        repro.init(backend="local", num_nodes=1, num_cpus=2)
        big = identity.options(num_cpus=16)
        with pytest.raises(BackendError, match="largest"):
            big.remote(1)
        repro.shutdown()
