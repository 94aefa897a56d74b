import numpy as np
import pytest

from mahabench.gmm import ClassPrior, gmm_classify
from mahabench.heads import MetricKind, classify, estimate_class_statistics
from mahabench.methods import HeadConfig, predict, predict_labels
from mahabench.rng import Rng

HEADS = [HeadConfig(metric=metric) for metric in MetricKind] + [HeadConfig(gmm=True)]


@pytest.mark.parametrize("head", HEADS, ids=lambda h: "gmm" if h.gmm else h.metric.value)
def test_predictions_are_the_bits_of_the_head_classifier(head):
    rng = Rng(3)
    first, second = rng.normal((6, 4)), rng.normal((6, 4)) + 2.0
    # classes 0 and 2 share their examples, so every row ties between them
    support = np.vstack([first, second, first])
    stats = estimate_class_statistics(support, np.repeat(np.arange(3), 6))
    queries = np.vstack([3.0 * rng.normal((40, 4)), stats.means])
    if head.gmm:
        probs, labels = gmm_classify(queries, stats, ClassPrior.uniform(3))
    else:
        probs, labels = classify(queries, stats, head.metric)
    got = predict_labels(head, stats, queries)
    assert got.dtype == labels.dtype
    assert got.tobytes() == labels.tobytes()
    assert predict(head, stats, queries).tobytes() == probs.tobytes()
