"""Shared test plumbing.

The acceptance tests register one summary line each; the terminal hook prints
the block after the run so the pass/fail ledger is visible without -s.
"""

from dataclasses import replace

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def param_order(model) -> list[str]:
    """The model's parameter names in the checkpoint's normative order."""
    return [name for name, _ in model.parameters()]


def run_estimation_phase(config, dataset=None):
    """Train through the estimation epochs only, then match: the config's run
    cut short to end with the estimation phase (at least one epoch of it).
    Returns (model, match, estimated_counts)."""
    from imbalanced_ssl.trainer import train
    n = config.train.resolved_estimation_epochs()
    short = replace(config, train=replace(config.train, epochs=n, estimation_epochs=n))
    result = train(short, dataset=dataset)
    return result.model, result.match, result.estimated_counts
