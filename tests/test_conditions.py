"""Unit tests for objectives, conditions, and derived pruning bounds."""

from __future__ import annotations

import pytest

from repro.core import (
    ComparisonOp,
    ConditionSet,
    ContentCondition,
    ContentObjective,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    Window,
    col,
)


class TestComparisonOp:
    @pytest.mark.parametrize(
        "op, left, right, expected",
        [
            (ComparisonOp.LT, 1, 2, True),
            (ComparisonOp.LE, 2, 2, True),
            (ComparisonOp.GT, 2, 2, False),
            (ComparisonOp.GE, 2, 2, True),
            (ComparisonOp.EQ, 3, 3, True),
            (ComparisonOp.NE, 3, 3, False),
        ],
    )
    def test_apply(self, op, left, right, expected):
        assert op.apply(left, right) is expected

    def test_nan_never_satisfies(self):
        for op in ComparisonOp:
            assert not op.apply(float("nan"), 1.0)

    def test_nan_on_either_side_never_satisfies(self):
        nan = float("nan")
        for op in ComparisonOp:
            assert not op.apply(1.0, nan)
            assert not op.apply(nan, nan)
            assert not op.test(nan, 1.0)

    def test_value_is_the_symbol(self):
        assert [op.value for op in ComparisonOp] == ["<", "<=", ">", ">=", "=", "!="]
        assert ComparisonOp("<=") is ComparisonOp.LE

    def test_parse_aliases(self):
        assert ComparisonOp.parse("==") is ComparisonOp.EQ
        assert ComparisonOp.parse("<>") is ComparisonOp.NE
        assert ComparisonOp.parse(">=") is ComparisonOp.GE

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            ComparisonOp.parse("~")


class TestShapeObjective:
    def test_length(self):
        obj = ShapeObjective(ShapeKind.LENGTH, 1)
        assert obj.value(Window((0, 0), (2, 5))) == 5.0

    def test_cardinality(self):
        obj = ShapeObjective(ShapeKind.CARDINALITY)
        assert obj.value(Window((0, 0), (2, 5))) == 10.0

    def test_length_requires_dim(self):
        with pytest.raises(ValueError, match="requires a dimension"):
            ShapeObjective(ShapeKind.LENGTH)

    def test_card_takes_no_dim(self):
        with pytest.raises(ValueError, match="does not take"):
            ShapeObjective(ShapeKind.CARDINALITY, 0)


class TestContentObjective:
    def test_of(self):
        obj = ContentObjective.of("avg", col("v"))
        assert obj.aggregate.name == "avg"
        assert obj.columns() == {"v"}

    def test_count_without_expr(self):
        obj = ContentObjective.of("count")
        assert obj.key == "*"

    def test_value_aggregate_requires_expr(self):
        with pytest.raises(ValueError, match="requires an attribute expression"):
            ContentObjective.of("sum")

    def test_key_is_expression_repr(self):
        assert ContentObjective.of("avg", col("v") * 2).key == "(v * 2)"


class TestConditions:
    def test_shape_condition_evaluate(self):
        cond = ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.EQ, 3)
        assert cond.evaluate(Window((0, 0), (3, 1)))
        assert not cond.evaluate(Window((0, 0), (2, 1)))

    def test_content_condition_evaluate_value(self):
        cond = ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.GT, 10)
        assert cond.evaluate_value(11.0)
        assert not cond.evaluate_value(9.0)
        assert not cond.evaluate_value(float("nan"))

    def test_anti_monotone_detection(self):
        sum_lt = ContentCondition(ContentObjective.of("sum", col("v")), ComparisonOp.LT, 5)
        sum_gt = ContentCondition(ContentObjective.of("sum", col("v")), ComparisonOp.GT, 5)
        avg_lt = ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.LT, 5)
        count_le = ContentCondition(ContentObjective.of("count"), ComparisonOp.LE, 5)
        assert sum_lt.anti_monotone
        assert count_le.anti_monotone
        assert not sum_gt.anti_monotone
        assert not avg_lt.anti_monotone


def _cs(*conditions, ndim=2):
    return ConditionSet.of(conditions, ndim)


class TestConditionSetBounds:
    def test_min_lengths_from_ge(self):
        cs = _cs(ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, 3))
        assert cs.min_lengths((10, 10)) == (3, 1)

    def test_min_lengths_from_gt(self):
        cs = _cs(ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 1), ComparisonOp.GT, 2))
        assert cs.min_lengths((10, 10)) == (1, 3)

    def test_min_lengths_from_eq(self):
        cs = _cs(ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.EQ, 4))
        assert cs.min_lengths((10, 10)) == (4, 1)

    def test_min_lengths_clipped_to_grid(self):
        cs = _cs(ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, 50))
        assert cs.min_lengths((10, 10)) == (10, 1)

    def test_max_lengths_from_lt(self):
        cs = _cs(ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.LT, 4))
        assert cs.max_lengths((10, 10)) == (3, 10)

    def test_max_lengths_from_card(self):
        cs = _cs(ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, 10))
        assert cs.max_lengths((20, 20)) == (9, 9)

    def test_max_cardinality(self):
        cs = _cs(
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, 10),
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 7),
        )
        assert cs.max_cardinality((20, 20)) == 7

    def test_max_cardinality_from_lengths(self):
        cs = _cs(
            ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.EQ, 3),
            ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 1), ComparisonOp.EQ, 2),
        )
        assert cs.max_cardinality((20, 20)) == 6

    def test_max_cardinality_unconstrained(self):
        cs = _cs()
        assert cs.max_cardinality((20, 20)) is None

    def test_shape_satisfied(self):
        cs = _cs(
            ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.EQ, 3),
            ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 1), ComparisonOp.EQ, 2),
        )
        assert cs.shape_satisfied(Window((0, 0), (3, 2)))
        assert not cs.shape_satisfied(Window((0, 0), (3, 3)))

    def test_dim_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="references dimension"):
            _cs(ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 5), ComparisonOp.EQ, 1))

    def test_content_objectives_dedup(self):
        obj = ContentObjective.of("avg", col("v"))
        cs = _cs(
            ContentCondition(obj, ComparisonOp.GT, 1),
            ContentCondition(obj, ComparisonOp.LT, 9),
        )
        assert len(cs.content_objectives()) == 1

    def test_partition_by_kind(self):
        cs = _cs(
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, 10),
            ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.GT, 1),
        )
        assert len(cs.shape_conditions) == 1
        assert len(cs.content_conditions) == 1
        assert len(cs) == 2

    def test_partition_is_computed_once(self):
        shape = ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, 10)
        content = ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.GT, 1)
        cs = _cs(content, shape, content)
        assert cs.shape_conditions is cs.shape_conditions == (shape,)
        assert cs.content_conditions is cs.content_conditions == (content, content)
        # The split is derived state: it takes no part in equality or hashing.
        assert cs == _cs(content, shape, content)
        assert hash(cs) == hash(_cs(content, shape, content))
        assert cs != _cs(shape, content, content)
