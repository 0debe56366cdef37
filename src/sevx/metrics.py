"""Trial scoring and detection metrics: unit-norm rows for cosines, EER, and minDCF.

Conventions, fixed for reproducibility: a trial is accepted when its score is
>= the threshold (ties accept); FRR(t) = P(target < t) and FAR(t) =
P(nontarget >= t); EER interpolates linearly between the two operating
points that bracket the crossing; minDCF sweeps all distinct scores plus
+/-inf sentinels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import read_rows, write_rows
from .tensor import NumericError

TARGET = "target"
NONTARGET = "nontarget"


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: str

    def __post_init__(self):
        if not self.enroll_id or not self.test_id:
            raise ValueError("trial ids must be nonempty")
        if self.label not in (TARGET, NONTARGET):
            raise ValueError(f"trial label must be target|nontarget, got {self.label!r}")


@dataclass(frozen=True)
class DCFParams:
    p_target: float = 0.01
    cost_miss: float = 1.0
    cost_fa: float = 1.0

    def __post_init__(self):
        if not 0 < self.p_target < 1:
            raise ValueError(f"eval.p_target must be in (0, 1), got {self.p_target!r}")
        for key, cost in (("eval.c_miss", self.cost_miss), ("eval.c_fa", self.cost_fa)):
            if not 0 < cost < np.inf:
                raise ValueError(f"{key} must be positive and finite, got {cost!r}")


class ScoreSet:
    """Trials with attached scores, split into target / nontarget arrays.
    A non-finite score is rejected: it would sort past every threshold."""

    def __init__(self, trials_scores):
        items = list(trials_scores)
        for t, score in items:
            if not np.isfinite(score):
                raise ValueError(f"non-finite score {score} for trial {t.enroll_id} {t.test_id}")
        tar = [s for t, s in items if t.label == TARGET]
        non = [s for t, s in items if t.label == NONTARGET]
        self.target_scores = np.asarray(tar, dtype=np.float64)
        self.nontarget_scores = np.asarray(non, dtype=np.float64)

    def require_both_classes(self) -> None:
        if len(self.target_scores) < 1 or len(self.nontarget_scores) < 1:
            raise ValueError(
                f"metrics require both classes: {len(self.target_scores)} target, "
                f"{len(self.nontarget_scores)} nontarget trials")


def unit_rows(rows) -> np.ndarray:
    """The rows of ``rows`` (n, d) as float64, each scaled to unit L2 norm, so
    a row-wise dot of two of them is their cosine. A zero row raises
    ``NumericError``."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError(f"zero-norm row {int(np.argmax(norms == 0.0))} has no direction")
    return rows / norms


def _operating_points(tar: np.ndarray, non: np.ndarray):
    """FRR/FAR at every distinct score plus -inf/+inf sentinels."""
    thresholds = np.concatenate((
        [-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]))
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    frr = np.searchsorted(tar_sorted, thresholds, side="left") / len(tar)
    far = 1.0 - np.searchsorted(non_sorted, thresholds, side="left") / len(non)
    return thresholds, frr, far


def eer_from_arrays(tar: np.ndarray, non: np.ndarray) -> float:
    _, frr, far = _operating_points(tar, non)
    d = far - frr
    # d starts at +1 and ends at -1; find the first nonpositive point
    i = int(np.argmax(d <= 0))
    if d[i] == 0.0:
        return float(frr[i])
    lam = d[i - 1] / (d[i - 1] - d[i])
    return float(frr[i - 1] + lam * (frr[i] - frr[i - 1]))


def min_dcf_from_arrays(tar: np.ndarray, non: np.ndarray,
                        params: DCFParams = DCFParams()) -> float:
    _, frr, far = _operating_points(tar, non)
    dcf = params.cost_miss * params.p_target * frr + params.cost_fa * (1 - params.p_target) * far
    norm = min(params.cost_miss * params.p_target, params.cost_fa * (1 - params.p_target))
    return float(dcf.min() / norm)


def eer(scores: ScoreSet) -> float:
    scores.require_both_classes()
    return eer_from_arrays(scores.target_scores, scores.nontarget_scores)


def min_dcf(scores: ScoreSet, params: DCFParams = DCFParams()) -> float:
    scores.require_both_classes()
    return min_dcf_from_arrays(scores.target_scores, scores.nontarget_scores, params)


# ---- file formats -----------------------------------------------------------


def read_trials(path: str) -> list[Trial]:
    """Rows of ``enroll_id test_id target|nontarget``."""
    return read_rows(path, 3, Trial)


def write_trials(path: str, trials) -> None:
    write_rows(path, ((t.enroll_id, t.test_id, t.label) for t in trials))


def read_scores(path: str) -> dict[tuple[str, str], float]:
    """Rows of ``enroll_id test_id score``; a pair scored twice is an error."""
    scores = {}

    def add(enroll: str, test: str, score: str) -> None:
        if (enroll, test) in scores:
            raise ValueError(f"trial {enroll} {test} scored twice")
        scores[(enroll, test)] = float(score)

    read_rows(path, 3, add)
    return scores


def write_scores(path: str, items) -> None:
    """items: iterable of (enroll_id, test_id, score)."""
    write_rows(path, ((enroll, test, f"{score:.8f}") for enroll, test, score in items))


def score_set_from_files(trials_path: str, scores_path: str) -> ScoreSet:
    trials = read_trials(trials_path)
    scores = read_scores(scores_path)
    items = []
    for t in trials:
        key = (t.enroll_id, t.test_id)
        if key not in scores:
            raise ValueError(f"missing score for trial {t.enroll_id} {t.test_id}")
        items.append((t, scores[key]))
    return ScoreSet(items)


def metrics_report(scores: ScoreSet, params: DCFParams = DCFParams()) -> dict[str, str]:
    scores.require_both_classes()
    return {
        "eer_percent": f"{100.0 * eer(scores):.6f}",
        "min_dcf": f"{min_dcf(scores, params):.6f}",
        "num_target": str(len(scores.target_scores)),
        "num_nontarget": str(len(scores.nontarget_scores)),
    }

