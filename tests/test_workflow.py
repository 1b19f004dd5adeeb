"""The CI workflow, checked offline.

Every ``run:`` step of ``.github/workflows/tier1.yml`` must parse as
bash, and every ``ends-scatter`` call in it must name a subcommand and a
preset the CLI accepts: a ``--config`` it reads is one the step writes
with ``printf``, and the config parser accepts it, and the run's
overrides parse.  A call that passes ``"$@"`` takes each command of the
step's ``for run in ...`` list.  The workflow itself runs only on
GitHub; these checks catch its drift from the CLI here.
"""

import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from ends_scatter import cli
from ends_scatter.config import default_config, parse_config

yaml = pytest.importorskip("yaml")

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tier1.yml")
STEPS = {f"{job}: {step.get('name', i)}": step["run"]
         for job, spec in yaml.safe_load(WORKFLOW.read_text())["jobs"].items()
         for i, step in enumerate(spec["steps"]) if "run" in step}


def _calls(script: str) -> list:
    """The argument list of each ``ends-scatter`` call of ``script``."""
    text = script.replace("\\\n", " ")
    loop = re.search(r"for run in (.*?); do", text, re.S)
    calls = []
    for line in text.splitlines():
        if not re.search(r"(^|\s)ends-scatter\s", line):
            continue
        words = shlex.split(line, comments=True)
        args = words[words.index("ends-scatter") + 1:]
        for stop in ("||", "&&", ";", "|", ">"):
            if stop in args:
                args = args[:args.index(stop)]
        if args[:1] == ["$@"]:
            assert loop, f"{line!r} passes $@ outside a 'for run in' loop"
            calls += [shlex.split(run) + args[1:]
                      for run in shlex.split(loop.group(1))]
        else:
            calls.append(args)
    return calls


def _written_configs(script: str) -> dict:
    """Config file name -> text, for each ``printf '...' > NAME``."""
    return {name: text.replace("\\n", "\n")
            for text, name in re.findall(r"printf '([^']*)' > (\S+)", script)}


def test_the_workflow_calls_the_cli():
    calls = [args for script in STEPS.values() for args in _calls(script)]
    assert len(calls) >= 10


@pytest.mark.parametrize("step", sorted(STEPS))
def test_run_step_parses_as_bash(step):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("no bash on PATH")
    res = subprocess.run([bash, "-n"], input=STEPS[step], text=True,
                         capture_output=True)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("step", sorted(STEPS))
def test_every_cli_call_is_one_the_cli_accepts(step):
    configs = _written_configs(STEPS[step])
    for args in _calls(STEPS[step]):
        try:
            ns = cli._build_parser().parse_args(args)
        except SystemExit:
            pytest.fail(f"the CLI refuses {args}")
        assert bool(ns.config) != bool(ns.preset), args
        if ns.config:
            assert ns.config in configs, f"{args} reads a config no printf writes"
            cfg = parse_config(configs[ns.config])
        else:
            cfg = default_config(ns.preset)
        cli._apply_overrides(cfg, ns)
