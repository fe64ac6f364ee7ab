import pytest

from routesvm.dataset_io import Dataset
from routesvm.plotting import PlotSpec, render_svg
from routesvm.svm import KernelSpec, LabeledExample, SvmModel, TrainConfig, UnsupportedKernelError, train


def sign_of_y_model() -> SvmModel:
    return SvmModel(
        kernel=KernelSpec.linear(),
        support_examples=(LabeledExample((0.0, 1.0), 1),),
        alphas=(1.0,),
        bias=1.5,  # boundary y = -1.5
    )


def dataset_of(examples) -> Dataset:
    return Dataset(examples=tuple(examples))


def rbf_model() -> SvmModel:
    xor = [
        LabeledExample((0.0, 0.0), -1),
        LabeledExample((1.0, 1.0), -1),
        LabeledExample((0.0, 1.0), 1),
        LabeledExample((1.0, 0.0), 1),
    ]
    return train(xor, KernelSpec.rbf(gamma=1.0), TrainConfig(C=100.0))


class TestRenderSvg:
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
        svg = render_svg(sign_of_y_model(), dataset_of([]))
        assert svg.count("<polygon") == 2
        assert '<line class="boundary"' in svg
        assert 'class="pt-pos"' not in svg
        assert 'class="pt-neg"' not in svg

    def test_byte_determinism(self):
        model = sign_of_y_model()
        dataset = dataset_of(
            [LabeledExample((1.0, 0.0), 1), LabeledExample((2.0, -3.0), -1)]
        )
        assert render_svg(model, dataset) == render_svg(model, dataset)

    def test_shading_rejected_for_nonlinear_kernel(self):
        with pytest.raises(UnsupportedKernelError):
            render_svg(rbf_model(), dataset_of([]), PlotSpec(shade_regions=True))

    def test_scatter_only_works_for_nonlinear_kernel(self):
        dataset = dataset_of([LabeledExample((0.5, 0.5), 1)])
        svg = render_svg(rbf_model(), dataset, PlotSpec(shade_regions=False))
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

    def test_explicit_axis_ranges(self):
        spec = PlotSpec(x_range=(0.0, 10.0), y_range=(-5.0, 5.0))
        svg = render_svg(sign_of_y_model(), dataset_of([]), spec)
        assert "<svg" in svg

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlotSpec(width=0).validate()
        with pytest.raises(ValueError):
            PlotSpec(x_range=(2.0, 1.0)).validate()
