"""The package never imports scipy: importing it loads numpy alone, and
the CLI runs with scipy blocked, the bpsk quantized-MAP detector too."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ISI_BOUND_CFG = """
[scenario]
name = isi

[design]
channels = 8

[sweep]
grid = 8 16
"""


QUANTIZED_MAP_CFG = """
[scenario]
name = bpsk

[sweep]
method = quantized_map
axis = snr_db
grid = 6 10
rate_bits = 24
trials = 3000
"""

SWEEP = ("import sys\n"
         "{block}"
         "from taskquant import cli\n"
         "sys.exit(cli.main(['sweep', '--config', sys.argv[1]]))\n")


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, cwd=SRC)


def test_importing_the_package_loads_no_scipy():
    result = _run(
        "import sys\n"
        "import taskquant, taskquant.cli, taskquant.harness, taskquant.scenarios\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n")
    assert result.returncode == 0, result.stderr


def test_bound_runs_without_scipy(tmp_path):
    config = tmp_path / "isi.cfg"
    config.write_text(ISI_BOUND_CFG)
    result = _run(
        "import sys\n"
        "sys.modules['scipy'] = None   # any scipy import now raises ImportError\n"
        "from taskquant import cli\n"
        "sys.exit(cli.main(['bound', '--config', sys.argv[1]]))\n", str(config))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "axis,method,metric,estimate,std_error,trials"
    assert len(lines) == 1 + 2


def test_quantized_map_sweep_runs_without_scipy(tmp_path):
    config = tmp_path / "bpsk.cfg"
    config.write_text(QUANTIZED_MAP_CFG)
    normal = _run(SWEEP.format(block=""), str(config))
    blocked = _run(SWEEP.format(block="sys.modules['scipy'] = None\n"), str(config))
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout
    assert normal.stdout.splitlines()[0] == "axis,method,metric,estimate,std_error,trials"
    assert len(normal.stdout.splitlines()) == 1 + 2
