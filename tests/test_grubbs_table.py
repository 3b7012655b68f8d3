"""The Grubbs critical-value table is the Student-t formula, bit for bit."""

import math

from scipy.special import stdtrit

from provstp import grubbs_table
from provstp.detect import grubbs_critical


def student_t_critical(n, alpha):
    tq = float(stdtrit(n - 2, 1.0 - alpha / n))
    return ((n - 1) / math.sqrt(n)) * math.sqrt(tq * tq / (n - 2 + tq * tq))


def test_every_table_entry_equals_the_formula():
    table = grubbs_table.values()
    for n in range(3, 1025):
        ref = student_t_critical(n, 0.05)
        assert table[n - 3] == ref, n
        assert grubbs_critical(n, 0.05) == ref, n


def test_module_source_is_what_the_generator_writes():
    """`python -m provstp.grubbs_table` would leave the module byte-identical."""
    with open(grubbs_table.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert grubbs_table.rewrite(source) == source


def test_table_covers_exactly_n_3_to_1024_at_alpha_005(monkeypatch):
    assert (grubbs_table.ALPHA, grubbs_table.N_MIN, grubbs_table.N_MAX) == (0.05, 3, 1024)
    assert len(grubbs_table.values()) == 1022
    calls = []
    monkeypatch.setattr(grubbs_table, "formula",
                        lambda n, alpha: calls.append((n, alpha)) or 0.0)
    grubbs_critical.cache_clear()
    try:
        for n in (3, 4, 1023, 1024):
            grubbs_critical(n, 0.05)
        assert calls == []
        grubbs_critical(1025, 0.05)
        grubbs_critical(3, 0.01)
        assert calls == [(1025, 0.05), (3, 0.01)]
    finally:
        grubbs_critical.cache_clear()


def test_off_table_values_come_from_the_formula():
    for n, alpha in ((1025, 0.05), (5000, 0.05), (3, 0.01), (50, 0.01), (1024, 0.01)):
        assert grubbs_critical(n, alpha) == student_t_critical(n, alpha), (n, alpha)
