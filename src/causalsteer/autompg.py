"""Auto-MPG demonstration: dataset ingestion and the intervention report.

The raw UCI file is downloaded once and cached at ``cache_file()``, the one
rule for its path (override the directory with the CAUSALSTEER_CACHE
environment variable); a SHA-256 sidecar guards the cached copy against
truncation. Without network access, place the file there yourself.

The causal structure over the six variables is supplied as a graph file;
the repository bundles an illustrative example (structure learning is out
of scope for this package).
"""

import os
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


def cache_file(cache_dir=None) -> Path:
    """The cached raw file <dir>/auto-mpg.data; <dir> is ``cache_dir``, else $CAUSALSTEER_CACHE, else ~/.cache/causalsteer.

    An empty string counts as unset, for the argument and the variable alike.
    """
    cache = cache_dir or os.environ.get(CACHE_ENV)
    return (Path(cache) if cache else Path.home() / ".cache" / "causalsteer") / "auto-mpg.data"


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


def fetch_autompg(raw_path: Path) -> Dataset:
    """Return the Auto-MPG dataset cached at ``raw_path`` (see ``cache_file``), downloading it once.

    A cached copy is reused without touching the network; its SHA-256 is
    checked against the sidecar ``raw_path.with_suffix(".sha256")``, written
    when the file is first read. A failed download makes no directory, and
    its error leaves the path for the caller to name.
    """
    # Imported here: at the top they would load ssl, socket and email with every command.
    import hashlib
    import http.client
    import urllib.request

    digest_path = raw_path.with_suffix(".sha256")
    if not raw_path.exists():
        try:
            with urllib.request.urlopen(AUTOMPG_URL, timeout=60) as response:
                payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # URLError is an OSError; a truncated body raises IncompleteRead, an HTTPException.
            raise NetworkUnavailable(f"could not download {AUTOMPG_URL}: {exc}; place the raw file there manually") from exc
        raw_path.parent.mkdir(parents=True, exist_ok=True)
        raw_path.write_bytes(payload)
    payload = raw_path.read_bytes()
    actual = hashlib.sha256(payload).hexdigest()
    if not digest_path.exists():
        digest_path.write_text(actual + "\n")
    expected = digest_path.read_text().strip()
    if actual != expected:
        reason = f"cached file checksum {actual[:12]} != recorded {expected[:12]} in {digest_path.name}"
        raise ParseError(None, f"{reason}; remove both files to download again, or place a good copy")
    return parse_autompg(payload.decode("utf-8"))


def bundled_structure_path() -> Path:
    """Path of the illustrative causal-structure file shipped with the package.

    Illustrative causal structure for the Auto-MPG demo. Hand-specified
    engineering assumptions (engine size drives displacement, which drives
    mass and power, which drive fuel consumption and sprint time); NOT a
    learned structure.
    """
    return Path(__file__).with_name("data") / "autompg_structure.json"


def demo_autompg(structure: Dag, data: Dataset, desired_values) -> str:
    """The report: fit MPG on the remaining five variables and steer it to each target.

    Selects the variable with the greatest causal effect on the predicted
    MPG, then lists the optimal intervention value next to the naive
    per-equation value, flagging values outside the observed variable range.
    ``data`` is ``parse_autompg`` output, so its columns are named.
    """
    if structure.n != data.n:
        raise ValueError(f"structure has {structure.n} variables, data has {data.n}")
    if structure.names is not None and structure.names != data.names:
        raise ValueError(
            f"structure variables {structure.names} do not match data columns {data.names}"
        )

    model = fit_linear(data, data.names.index("mpg") + 1)
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
        f"intervention variable: {data.names[intervene_on - 1]} (observed range {lo:g} .. {hi:g})",
        f"{'desired mpg':>12} {'optimal':>12} {'naive':>14}",
    ]
    lines += [f"{dk:>12g} {flagged(ok, 12)} {flagged(nk, 14)}" for dk, ok, nk in zip(d, optimal, naive)]
    if any("(!)" in line for line in lines[2:]):
        lines.append("(!) outside the observed range of the intervention variable")
    return "\n".join(lines)
