"""A tiny module-importable evaluator for crash-recovery subprocess tests.

The worker subprocess resolves its evaluator from the stored model name
(``tests.store.crash_model:evaluate``), so this must live in a real
module, importable from the repository root.
"""


def evaluate(assignment):
    x = float(assignment["x"])
    return 1.0 / (1.0 + x * x)


class KillDriverAt:
    """``evaluate`` that SIGKILLs the campaign's driver at one point.

    Run in a pool worker, it hard-kills the process that holds the
    round's leases while the round is still being evaluated, and logs
    ``x pid`` per evaluation so a test can count the lost work and check
    that the orphaned workers leave.
    """

    def __init__(self, x, driver_pid, log):
        self.x = float(x)
        self.driver_pid = int(driver_pid)
        self.log = log

    def __call__(self, assignment):
        import os
        import signal

        with open(self.log, "a") as handle:
            handle.write(f"{assignment['x']!r} {os.getpid()}\n")
        if float(assignment["x"]) == self.x and os.getpid() != self.driver_pid:
            os.kill(self.driver_pid, signal.SIGKILL)
        return evaluate(assignment)
