"""Auto-MPG demonstration: dataset ingestion and the intervention report.

The raw UCI file is downloaded once and cached (override the location with
the CAUSALSTEER_CACHE environment variable); a SHA-256 sidecar guards the
cached copy against truncation. Without network access, place the file at
<cache>/auto-mpg.data yourself.

The causal structure over the six variables is supplied as a graph file;
the repository bundles an illustrative example (structure learning is out
of scope for this package).
"""

import hashlib
import importlib.resources
import os
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from .causal import naive_intervention_value, observation_specific_plan, select_intervention_target
from .errors import NetworkUnavailable, ParseError
from .graph import Dag
from .models import augment_graph, fit_linear
from .scm import Dataset

AUTOMPG_URL = "https://archive.ics.uci.edu/ml/machine-learning-databases/auto-mpg/auto-mpg.data"
CACHE_ENV = "CAUSALSTEER_CACHE"

#: Variables kept for the demo, in column order; MPG is the prediction target.
COLUMNS = ("cylinders", "weight", "displacement", "horsepower", "acceleration", "mpg")

# Raw-file token positions of the kept variables (mpg cylinders displacement
# horsepower weight acceleration model-year origin, then the car name).
_RAW_POSITIONS = (1, 4, 2, 3, 5, 0)
_RAW_TOKENS = 8
_MISSING = "?"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "causalsteer"


def parse_autompg(text: str) -> Dataset:
    """Parse the raw fixed-width records into the six demo columns.

    Rows with a missing horsepower value are dropped. Raises ParseError with
    the offending 1-based line number on malformed input.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split("\t")[0].split()
        if len(tokens) != _RAW_TOKENS:
            raise ParseError(lineno, f"expected {_RAW_TOKENS} numeric fields, found {len(tokens)}")
        if _MISSING in tokens:
            continue
        try:
            values = [float(tokens[p]) for p in _RAW_POSITIONS]
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        rows.append(values)
    if not rows:
        raise ParseError(1, "no data rows found")
    return Dataset(np.asarray(rows), COLUMNS)


def fetch_autompg(cache_dir=None) -> Dataset:
    """Return the Auto-MPG dataset, downloading and caching the raw file once.

    A cached copy is reused without touching the network; its SHA-256 is
    checked against the sidecar written when the file is first read.
    """
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    raw_path = cache / "auto-mpg.data"
    digest_path = cache / "auto-mpg.sha256"
    if not raw_path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        try:
            with urllib.request.urlopen(AUTOMPG_URL, timeout=60) as response:
                payload = response.read()
        except (urllib.error.URLError, OSError) as exc:
            raise NetworkUnavailable(
                f"could not download {AUTOMPG_URL}: {exc}; "
                f"place the raw file manually at {raw_path}"
            ) from exc
        raw_path.write_bytes(payload)
    payload = raw_path.read_bytes()
    actual = hashlib.sha256(payload).hexdigest()
    if not digest_path.exists():
        digest_path.write_text(actual + "\n")
    expected = digest_path.read_text().strip()
    if actual != expected:
        raise ParseError(1, f"cached file checksum {actual[:12]} != recorded {expected[:12]}")
    return parse_autompg(payload.decode("utf-8"))


def bundled_structure_path() -> Path:
    """Path of the illustrative causal-structure file shipped with the package.

    Illustrative causal structure for the Auto-MPG demo. Hand-specified
    engineering assumptions (engine size drives displacement, which drives
    mass and power, which drive fuel consumption and sprint time); NOT a
    learned structure.
    """
    return Path(importlib.resources.files("causalsteer").joinpath("data/autompg_structure.json"))


def demo_autompg(structure: Dag, data: Dataset, desired_values) -> str:
    """The report: fit MPG on the remaining five variables and steer it to each target.

    Selects the variable with the greatest causal effect on the predicted
    MPG, then lists the optimal intervention value next to the naive
    per-equation value, flagging values outside the observed variable range.
    """
    if structure.n != data.n:
        raise ValueError(f"structure has {structure.n} variables, data has {data.n}")
    if structure.names is not None and data.names is not None and structure.names != data.names:
        raise ValueError(
            f"structure variables {structure.names} do not match data columns {data.names}"
        )
    names = data.names or tuple(f"x{k + 1}" for k in range(data.n))
    target = names.index("mpg") + 1 if "mpg" in names else data.n

    model = fit_linear(data, target)
    intervene_on = select_intervention_target(augment_graph(structure, model), model.predictor_indices)
    column = data.column(intervene_on)
    lo, hi = float(column.min()), float(column.max())

    # The plans start from the sample means, taken as one observation.
    mu = data.rows.mean(axis=0)
    d = np.array(desired_values, dtype=float)
    optimal = observation_specific_plan(mu, structure, model, intervene_on, d).value
    naive = naive_intervention_value(model, mu, intervene_on, d)

    def flagged(value, width):
        return f"{value:>{width}.3f}" + ("" if lo <= value <= hi else " (!)")

    lines = [
        f"intervention variable: {names[intervene_on - 1]} (observed range {lo:g} .. {hi:g})",
        f"{'desired mpg':>12} {'optimal':>12} {'naive':>14}",
    ]
    lines += [f"{dk:>12g} {flagged(ok, 12)} {flagged(nk, 14)}" for dk, ok, nk in zip(d, optimal, naive)]
    if any("(!)" in line for line in lines[2:]):
        lines.append("(!) outside the observed range of the intervention variable")
    return "\n".join(lines)
