import re

import pytest

from routesvm.plotting import render_svg
from routesvm.svm import DataError, KernelSpec, LabeledExample, SvmModel, TrainConfig, train

from helpers import dataset_of


def sign_of_y_model() -> SvmModel:
    return SvmModel(
        kernel=KernelSpec.linear(),
        support_examples=(LabeledExample((0.0, 1.0), 1),),
        alphas=(1.0,),
        bias=1.5,  # boundary y = -1.5
    )


def rbf_model() -> SvmModel:
    xor = [
        LabeledExample((0.0, 0.0), -1),
        LabeledExample((1.0, 1.0), -1),
        LabeledExample((0.0, 1.0), 1),
        LabeledExample((1.0, 0.0), 1),
    ]
    return train(xor, KernelSpec.rbf(gamma=1.0), TrainConfig(C=100.0))


class TestRenderSvg:
    @pytest.mark.parametrize("features", [[(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)], [(1.0,), (2.0,)]])
    def test_features_other_than_x_y_are_refused(self, features):
        # 2x3 features were reshaped into 3x2 rows; a model of as many
        # features then reported "model has 3 features, data has 2"
        supports = (LabeledExample((0.0,) * len(features[0]), 1),)
        model = SvmModel(KernelSpec.linear(), supports, (1.0,), 0.0)
        with pytest.raises(ValueError, match="2 features"):
            render_svg(model, dataset_of(LabeledExample(f, 1) for f in features))

    def test_one_misclassified_point_gets_one_ring(self):
        model = sign_of_y_model()
        examples = [LabeledExample((float(i), 0.0), 1) for i in range(9)]
        examples.append(LabeledExample((4.0, 0.0), -1))  # above boundary, labeled -1
        svg = render_svg(model, dataset_of(examples))
        assert svg.count('class="miss"') == 1

    def test_six_misclassified_points_get_six_rings(self):
        model = sign_of_y_model()
        examples = [LabeledExample((float(i), 0.0), 1) for i in range(94)]
        examples.extend(LabeledExample((float(i), 0.0), -1) for i in range(3))
        examples.extend(LabeledExample((float(i), -3.0), 1) for i in range(3))
        svg = render_svg(model, dataset_of(examples))
        assert svg.count('class="miss"') == 6

    def test_empty_dataset_regions_and_boundary_only(self):
        # The frame always holds the boundary, so each half-plane clip of it is
        # a polygon of three or more corners, with no data or one point alike.
        steep = SvmModel(KernelSpec.linear(), (LabeledExample((1e6, 1.0), 1),), (1.0,), 0.0)
        vertical = SvmModel(KernelSpec.linear(), (LabeledExample((1.0, 0.0), 1),), (1.0,), -2.0)
        for model in (sign_of_y_model(), steep, vertical):
            svg = render_svg(model, dataset_of([]))
            assert '<line class="boundary"' in svg
            assert 'class="pt-pos"' not in svg
            assert 'class="pt-neg"' not in svg
            with_point = render_svg(model, dataset_of([LabeledExample((2.0, 5.0), 1)]))
            for figure in (svg, with_point):
                regions = re.findall(r'<polygon class="(region-\w+)" points="([^"]*)"', figure)
                assert figure.count("<polygon") == 2
                assert sorted(cls for cls, _ in regions) == ["region-neg", "region-pos"]
                assert all(len(points.split()) >= 3 for _, points in regions)

    def test_byte_determinism(self):
        model = sign_of_y_model()
        dataset = dataset_of(
            [LabeledExample((1.0, 0.0), 1), LabeledExample((2.0, -3.0), -1)]
        )
        assert render_svg(model, dataset) == render_svg(model, dataset)

    def test_nonlinear_kernel_draws_no_regions_or_boundary(self):
        svg = render_svg(rbf_model(), dataset_of([]))
        assert "<polygon" not in svg
        assert '<line class="boundary"' not in svg

    def test_scatter_only_works_for_nonlinear_kernel(self):
        dataset = dataset_of([LabeledExample((0.5, 0.5), 1)])
        svg = render_svg(rbf_model(), dataset)
        assert "<polygon" not in svg
        assert 'class="pt-pos"' in svg

    def test_point_classes_follow_labels(self):
        dataset = dataset_of(
            [LabeledExample((0.0, 0.0), 1), LabeledExample((1.0, -3.0), -1)]
        )
        svg = render_svg(sign_of_y_model(), dataset)
        assert svg.count('class="pt-pos"') == 1
        assert svg.count('class="pt-neg"') == 1
        assert svg.count('class="miss"') == 0

    def test_vertical_boundary_rendered(self):
        model = SvmModel(
            kernel=KernelSpec.linear(),
            support_examples=(LabeledExample((1.0, 0.0), 1),),
            alphas=(1.0,),
            bias=-2.0,  # boundary x = 2
        )
        svg = render_svg(model, dataset_of([]))
        assert '<line class="boundary"' in svg

    @pytest.mark.parametrize("supports, alphas", [
        ((), ()),
        ((LabeledExample((1.0, 1.0), 1), LabeledExample((1.0, 1.0), -1)), (1.0, 1.0)),
    ], ids=["no-supports", "zero-weight"])
    def test_linear_model_without_a_line_draws_the_scatter_only(self, supports, alphas):
        model = SvmModel(kernel=KernelSpec.linear(), support_examples=supports,
                         alphas=alphas, bias=1.0)
        svg = render_svg(model, dataset_of([LabeledExample((0.5, 0.5), 1)]))
        assert "<polygon" not in svg and '<line class="boundary"' not in svg
        assert 'class="pt-pos"' in svg

    def test_frame_wider_than_float64_raises(self):
        dataset = dataset_of(
            [LabeledExample((-1e308, 0.0), 1), LabeledExample((1e308, -2.0), -1)]
        )
        with pytest.raises(DataError, match="plot frame is not finite"):
            render_svg(sign_of_y_model(), dataset)

    def test_boundary_edge_past_float64_raises(self):
        steep = SvmModel(
            kernel=KernelSpec.linear(),
            support_examples=(LabeledExample((1e300, 1.0), 1),),
            alphas=(1.0,),
            bias=0.0,  # boundary y = -1e300 x, past float64 at x = +-1e10
        )
        dataset = dataset_of([LabeledExample((-1e10, 0.0), 1), LabeledExample((1e10, 0.0), 1)])
        with pytest.raises(DataError, match="plot frame is not finite"):
            render_svg(steep, dataset)
