"""How the package loads, and the value records it hands out."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atlab
from atlab import (
    at_exact,
    corona_cut_sides,
    corona_orientation,
    cycle,
    eulerian_tally_enumerate,
    least_uniform_cap,
    max_density,
    one_way_cut_check,
    path,
    verify_certificate,
)
from atlab.documents import parse_certificate, serialize_certificate

# Runs in a fresh interpreter: what `import atlab` and `import atlab.cli`
# load, then the first read of a lazy name, then what every lazy name gives.
STARTUP = """
import json, sys
import atlab, atlab.documents
out = {"after_import": sorted({"atlab.theorems", "fractions"} & set(sys.modules))}
import atlab.cli
out["after_cli"] = "atlab.theorems" in sys.modules
FIRST_READ
theorems = sys.modules["atlab.theorems"]
from atlab import run_suite
out["same"] = {"first": first is theorems.EXPECTED,
               "run_suite": atlab.run_suite is theorems.run_suite,
               "from atlab import run_suite": run_suite is theorems.run_suite,
               "corona_at": atlab.corona_at is theorems.corona_at,
               "ClaimReport": atlab.ClaimReport is theorems.ClaimReport,
               "theorems": atlab.theorems is theorems}
try:
    atlab.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
"""


@pytest.mark.parametrize("first_read, expected", [
    ("first = atlab.run_suite", "run_suite"),
    ("first = atlab.corona_at", "corona_at"),
    ("first = atlab.ClaimReport", "ClaimReport"),
    ("first = atlab.theorems.run_suite", "run_suite"),
    ("from atlab import run_suite as first", "run_suite"),
])
def test_theorems_and_fractions_load_on_first_use(first_read, expected):
    src = str(Path(atlab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = STARTUP.replace("FIRST_READ", first_read).replace("EXPECTED", expected)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    out = json.loads(done.stdout)
    assert out["after_import"] == []
    assert out["after_cli"] is False
    assert out["same"] == dict.fromkeys(out["same"], True)
    assert out["missing"] == "module 'atlab' has no attribute 'no_such_name'"


def _records():
    g = cycle(4)
    result = at_exact(g)
    cert = result.certificate
    g1, g2 = cycle(3), path(2)
    d, _ = corona_orientation(g1, at_exact(g1).certificate.orientation,
                              g2, at_exact(g2).certificate.orientation)
    return [
        cert,
        result,
        least_uniform_cap(g),
        verify_certificate(cert),
        max_density(g),
        parse_certificate(serialize_certificate(cert)),
        eulerian_tally_enumerate(cert.orientation),
        one_way_cut_check(d, *corona_cut_sides(g1, g2)),
    ]


@pytest.mark.parametrize("name", [
    "ATCertificate", "ATResult", "UniformCap", "VerifyReport",
    "DensityWitness", "CertificateDocument", "EulerianTally", "OneWayCutReport"])
def test_records_are_immutable_and_keep_their_repr(name):
    record = {type(r).__name__: r for r in _records()}[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({shown})"
