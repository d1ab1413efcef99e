"""Every README command-line example, pinned to its exit code and the
SHA-256 of its stdout.

The CLI promises byte-identical output for identical arguments, so a
refactor that claims to keep behaviour must keep these digests. A change
that alters output on purpose re-records the affected digest here and says
why. ``graph-m --graph file:mygraph.txt`` is left out: it reads a file the
README does not supply.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from skewlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SKIPPED = {"graph-m --graph file:mygraph.txt"}

EXAMPLES = {
    "report --n-range 1..8":
        (0, "cf343a2b9de4b476174af88d2b176f9148e87acd124abfcfccdf776189199abd"),
    "report --table theorem --max-n 200":
        (0, "4c21ae908c13c3572e8d41f03be84d298b430af3aace7fb00ad30e7cacc75d22"),
    "gamma-dist --n 12 --format csv":
        (0, "fa500359da8489da6232a4fffcdd693e4bacd9ad38b651450b39e1ca23fcb3c2"),
    "construct --construction C --n 10":
        (0, "c34ea233c448a951c904166cb5173c8fbc0245ce08fd5c554f151366cb740bf1"),
    "verify --construction C --n 12":
        (0, "3cc1630aeb51a43d6abd18985239e7a523c323756963993898cdb0debf682bed"),
    "verify --check sandwich --n 6":
        (0, "b909876957d249e28581e5c397d20dbef7465b73ef47a4804d55ab2f37a5abe0"),
    "exact-m --n 8 --format json":
        (0, "a2e8e4d559c9826480538e72bfd944ef8adc25fe8bd20a4847524026ff7fecc6"),
    "exact-m --n 10 --override-cap":
        (0, "c92b0fc987fcdb355ffd278691b8df5476d3c2ebdb1a45945763d7ef960b3635"),
    "graph-m --graph multipartite:2,2":
        (0, "bf2e1d2e799bcfa9e124abc4fbd20e3661ca1fed05a462fa2fc1e4c5607eed11"),
    "attractive --n 4":
        (0, "a0a1e9ce8634825ea6d6ea798c7c67e0570b71626bbc5e9712851ec8d2faa25b"),
    "sperner --n-range 1..20":
        (0, "374483720e9a8290da0d8751ab35b3685764771035391c6c32bceb0048f5b935"),
    "sperner --n 6 --witness":
        (0, "d9f2cfff6896671c962a243763fa892af2cfc5f8ae4a0d967c1eb146d8ad0ea4"),
    "montecarlo --n 20 --samples 100000 --seed 42":
        (0, "1dcd226a74bd280bc609f3c93b6382a1e2115ad8ddaa3083cc1af12f35c0ca31"),
    "crossover --max-n 200":
        (0, "8d0f4d07f677b3511cc05d2d7768bedaffaf4cdfbd4b8bdba8b36d655b22c575"),
}


def readme_commands() -> list[str]:
    """The ``skewlab ...`` lines of the README, without their comments."""
    found = re.findall(r"^skewlab (.+?)(?:\s+#.*)?$", README.read_text(), re.MULTILINE)
    return [" ".join(line.split()) for line in found]


def test_every_readme_example_is_pinned():
    assert set(readme_commands()) - SKIPPED == set(EXAMPLES)


@pytest.mark.parametrize("command", sorted(EXAMPLES))
def test_readme_example_output(capsys, command):
    code, digest = EXAMPLES[command]
    assert main(shlex.split(command)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
