"""Confusion matrices for anomaly prediction (Tables 1 and 2)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.prediction import Prediction


@dataclass(frozen=True)
class ConfusionMatrix:
    true_positive: int
    false_positive: int
    false_negative: int
    true_negative: int

    @property
    def total(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.false_negative
            + self.true_negative
        )

    @property
    def actual_yes(self) -> int:
        return self.true_positive + self.false_negative

    @property
    def actual_no(self) -> int:
        return self.false_positive + self.true_negative

    @property
    def predicted_yes(self) -> int:
        return self.true_positive + self.false_positive

    @property
    def predicted_no(self) -> int:
        return self.false_negative + self.true_negative

    @property
    def recall(self) -> float:
        """Fraction of actual anomalies predicted (1.0 when none exist)."""
        return (
            self.true_positive / self.actual_yes if self.actual_yes else 1.0
        )

    @property
    def precision(self) -> float:
        """Fraction of predicted anomalies that are real (1.0 when none)."""
        return (
            self.true_positive / self.predicted_yes
            if self.predicted_yes
            else 1.0
        )

    def format_table(self, title: str = "") -> str:
        lines = []
        if title:
            lines.append(title)
        lines += [
            f"{'':>14} {'pred yes':>9} {'pred no':>9} {'total':>7}",
            (
                f"{'actual yes':>14} {self.true_positive:>9} "
                f"{self.false_negative:>9} {self.actual_yes:>7}"
            ),
            (
                f"{'actual no':>14} {self.false_positive:>9} "
                f"{self.true_negative:>9} {self.actual_no:>7}"
            ),
            (
                f"{'total':>14} {self.predicted_yes:>9} "
                f"{self.predicted_no:>9} {self.total:>7}"
            ),
            (
                f"recall {self.recall:.1%}   precision {self.precision:.1%}"
            ),
        ]
        return "\n".join(lines)


def confusion_from_flags(
    actual: np.ndarray, predicted: np.ndarray
) -> ConfusionMatrix:
    """Count the four outcomes of ``(n,)`` bool actual and predicted
    anomaly flags."""
    return ConfusionMatrix(
        true_positive=int(np.count_nonzero(actual & predicted)),
        false_positive=int(np.count_nonzero(~actual & predicted)),
        false_negative=int(np.count_nonzero(actual & ~predicted)),
        true_negative=int(np.count_nonzero(~(actual | predicted))),
    )


def confusion_from_prediction(prediction: Prediction) -> ConfusionMatrix:
    records = prediction.records
    return confusion_from_flags(
        records.actual_anomaly, records.predicted_anomaly
    )
