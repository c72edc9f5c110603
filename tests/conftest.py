import os
import re

# one BLAS thread per process before numpy loads: on a small box the
# default pool oversubscribes the cores; a caller's own setting still wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_criterion_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        _criterion_results[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.write_line("")
    for n in sorted(_criterion_results):
        word = "PASS" if _criterion_results[n] == "passed" else "FAIL"
        terminalreporter.write_line(f"CRITERION {n}: {word}")
