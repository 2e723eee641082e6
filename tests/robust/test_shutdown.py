"""GracefulShutdown — the two-stage SIGTERM/SIGINT drain contract."""

import signal

import pytest

from repro.robust import GracefulShutdown


class TestFlagSemantics:
    def test_starts_clear(self):
        shutdown = GracefulShutdown(signals=())
        assert not shutdown.requested
        assert not shutdown
        assert shutdown() is False

    def test_request_sets_the_flag_once(self):
        fired = []
        shutdown = GracefulShutdown(signals=(), on_first=lambda: fired.append(1))
        shutdown.request()
        assert shutdown.requested
        assert shutdown() is True
        shutdown.request()  # in-process request() is idempotent, no force-exit
        assert fired == [1]

    def test_wait_returns_on_request(self):
        shutdown = GracefulShutdown(signals=())
        assert shutdown.wait(timeout=0.01) is False
        shutdown.request()
        assert shutdown.wait(timeout=0.01) is True

    def test_flag_is_set_before_the_callback_fires(self):
        def boom():
            raise RuntimeError("drain hook failed")

        shutdown = GracefulShutdown(signals=(), on_first=boom)
        with pytest.raises(RuntimeError):
            shutdown.request()
        assert shutdown.requested  # the flag was flipped first

    def test_doubles_as_should_stop(self):
        """The instance is the ``should_stop`` callable ResumableCampaign
        polls between rounds."""
        shutdown = GracefulShutdown(signals=())
        stops = [shutdown() for _ in range(2)]
        shutdown.request()
        stops.append(shutdown())
        assert stops == [False, False, True]


class TestInstallation:
    def test_install_uninstall_restores_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        shutdown = GracefulShutdown()
        shutdown.install()
        assert signal.getsignal(signal.SIGTERM) is not before
        shutdown.uninstall()
        assert signal.getsignal(signal.SIGTERM) is before

    def test_context_manager_installs_and_restores(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown() as shutdown:
            assert signal.getsignal(signal.SIGINT) is not before
            assert not shutdown.requested
        assert signal.getsignal(signal.SIGINT) is before

    def test_first_real_signal_sets_flag_without_dying(self):
        """One genuine SIGTERM delivered to this process: the handler
        absorbs it (no KeyboardInterrupt, no exit) and sets the flag."""
        fired = []
        with GracefulShutdown(on_first=lambda: fired.append(1)) as shutdown:
            signal.raise_signal(signal.SIGTERM)
            assert shutdown.requested
            assert fired == [1]

    def test_install_and_uninstall_are_idempotent(self):
        before = signal.getsignal(signal.SIGTERM)
        shutdown = GracefulShutdown()
        shutdown.install()
        installed = signal.getsignal(signal.SIGTERM)
        shutdown.install()  # no-op: does not stack handlers
        assert signal.getsignal(signal.SIGTERM) is installed
        shutdown.uninstall()
        shutdown.uninstall()
        assert signal.getsignal(signal.SIGTERM) is before
