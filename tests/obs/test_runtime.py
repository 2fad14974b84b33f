"""The zero-cost-when-disabled contract of the obs hook surface.

With no hub installed every context hook hands back the one shared
no-op context manager and every value hook returns ``None`` without
arming anything, so instrumented code pays one global read and one
``is None`` test.
"""

from types import SimpleNamespace

from repro.obs import runtime


class TestDisabledHooks:
    def test_context_hooks_return_shared_null(self):
        assert runtime.current() is None
        controller = SimpleNamespace(name="kubeshare-devmgr", kind="SharePod")
        ctxs = [
            runtime.span("reconcile", "ctl", trace_id="default/sp0", key="k"),
            runtime.reconcile_ctx(controller, "default/sp0"),
            runtime.token_wait_ctx("sp0", "GPU-0"),
            runtime.launch_ctx("sp0", "GPU-0", 0.5),
        ]
        assert all(ctx is runtime._NULL for ctx in ctxs)
        with ctxs[0] as span:
            assert span is None
        assert runtime.current() is None

    def test_decision_audit_is_none(self):
        assert runtime.decision_audit() is None

    def test_value_hooks_return_none_and_arm_nothing(self):
        assert runtime.instant("bind", "apiserver", trace_id="default/sp0") is None
        assert runtime.event("Scheduled", "placed", involved_name="sp0") is None
        assert runtime.api_write("create", "SharePod", "default", "sp0") is None
        assert runtime.token_grant("GPU-0", "client-0", 0.5) is None
        assert runtime.current() is None
        assert not runtime.enabled()
