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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .causal import naive_intervention_value, optimal_intervention_value, select_intervention_target
from .errors import NetworkUnavailable, ParseError
from .graph import Dag
from .models import PredictionModel, augment_graph, fit_linear
from .scm import Dataset, estimate_noise_means

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
    checked against the sidecar written at download time.
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
        digest_path.write_text(hashlib.sha256(payload).hexdigest() + "\n")
    payload = raw_path.read_bytes()
    if digest_path.exists():
        expected = digest_path.read_text().strip()
        actual = hashlib.sha256(payload).hexdigest()
        if actual != expected:
            raise ParseError(1, f"cached file checksum {actual[:12]} != recorded {expected[:12]}")
    else:
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(hashlib.sha256(payload).hexdigest() + "\n")
    return parse_autompg(payload.decode("utf-8"))


def bundled_structure_path() -> Path:
    """Path of the illustrative causal-structure file shipped with the package."""
    return Path(importlib.resources.files("causalsteer").joinpath("data/autompg_structure.json"))


@dataclass(frozen=True)
class DemoSuggestion:
    desired: float
    optimal_value: float
    optimal_plausible: bool
    naive_value: float
    naive_plausible: bool


@dataclass(frozen=True)
class DemoReport:
    """Suggested interventions for a list of desired MPG targets."""

    intervene_on: int
    intervene_name: str
    observed_lo: float
    observed_hi: float
    model: PredictionModel
    suggestions: tuple[DemoSuggestion, ...]

    def format(self) -> str:
        lines = [
            f"intervention variable: {self.intervene_name} "
            f"(observed range {self.observed_lo:g} .. {self.observed_hi:g})",
            f"{'desired mpg':>12} {'optimal':>12} {'naive':>14}",
        ]
        for s in self.suggestions:
            opt_flag = "" if s.optimal_plausible else " (!)"
            nai_flag = "" if s.naive_plausible else " (!)"
            lines.append(
                f"{s.desired:>12g} {s.optimal_value:>12.3f}{opt_flag} {s.naive_value:>14.3f}{nai_flag}"
            )
        if any(not s.naive_plausible or not s.optimal_plausible for s in self.suggestions):
            lines.append("(!) outside the observed range of the intervention variable")
        return "\n".join(lines)


def demo_autompg(structure: Dag, data: Dataset, desired_values) -> DemoReport:
    """Fit MPG on the remaining five variables and steer it to each target.

    Selects the variable with the greatest causal effect on the predicted
    MPG, then reports the optimal intervention value next to the naive
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
    augmented = augment_graph(structure, model)
    intervene_on = select_intervention_target(augmented, model.predictor_indices)

    mu = data.rows.mean(axis=0)
    noise = estimate_noise_means(structure, mu)
    column = data.column(intervene_on)
    lo, hi = float(column.min()), float(column.max())

    d = np.array(desired_values, dtype=float)
    optimal = optimal_intervention_value(mu, structure, noise, model, intervene_on, d).value
    naive = naive_intervention_value(model, mu, intervene_on, d)
    suggestions = [
        DemoSuggestion(float(dk), float(ok), bool(lo <= ok <= hi), float(nk), bool(lo <= nk <= hi))
        for dk, ok, nk in zip(d, optimal, naive)
    ]
    return DemoReport(
        intervene_on=intervene_on,
        intervene_name=names[intervene_on - 1],
        observed_lo=lo,
        observed_hi=hi,
        model=model,
        suggestions=tuple(suggestions),
    )
