import numpy as np
import pytest

from meshtkg import autodiff as ad
from meshtkg.autodiff import Tensor, grad_check
from meshtkg.decoder import ConvTransEParams, decode, init_conv_transe


def zero_params(d, channels, width):
    return ConvTransEParams(
        kernels=Tensor(np.zeros((channels, 2, width))),
        kernel_bias=Tensor(np.zeros(channels)),
        proj=Tensor(np.zeros((channels * d, d))),
        proj_bias=Tensor(np.zeros(d)),
        dropout=0.0,
    )


def test_zero_weights_give_zero_query():
    params = zero_params(d=4, channels=3, width=3)
    q = decode(params, Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))))
    assert q.shape == (2, 4)
    assert np.allclose(q.values, 0.0)


@pytest.mark.parametrize("channels,width,d", [(1, 1, 2), (2, 3, 4), (8, 5, 6)])
def test_output_length_is_d(channels, width, d, np_gen):
    params = init_conv_transe(d, channels, width, 0.0, np_gen)
    q = decode(params, Tensor(np_gen.standard_normal((3, d))), Tensor(np_gen.standard_normal((3, d))))
    assert q.shape == (3, d)


def test_hand_computed_convolution_and_projection():
    # C=2, w=3, d=4; kernel 0 averages the two channels at the center tap,
    # kernel 1 shifts channel 0 one step right
    d, C, w = 4, 2, 3
    kernels = np.zeros((C, 2, w))
    kernels[0, 0, 1] = 0.5
    kernels[0, 1, 1] = 0.5
    kernels[1, 0, 0] = 1.0
    h = np.array([1.0, 2.0, 3.0, 4.0])
    r = np.array([10.0, 20.0, 30.0, 40.0])
    fmap0 = 0.5 * h + 0.5 * r                      # (5.5, 11, 16.5, 22)
    fmap1 = np.array([0.0, 1.0, 2.0, 3.0])          # h shifted right
    flat = np.concatenate([fmap0, fmap1])           # relu is identity here
    proj = np.arange(C * d * d, dtype=float).reshape(C * d, d) / 10.0
    expected = flat @ proj + 1.0

    params = ConvTransEParams(
        kernels=Tensor(kernels),
        kernel_bias=Tensor(np.zeros(C)),
        proj=Tensor(proj.copy()),
        proj_bias=Tensor(np.ones(d)),
        dropout=0.0,
    )
    q = decode(params, Tensor(h[None, :]), Tensor(r[None, :]))
    assert np.allclose(q.values[0], expected)


def test_gradients_match_finite_differences():
    gen = np.random.default_rng(11)
    d, C, w = 4, 2, 3
    params = init_conv_transe(d, C, w, 0.0, gen, dtype=np.float64)
    h = Tensor(gen.standard_normal((2, d)))
    r = Tensor(gen.standard_normal((2, d)))

    def fn(h, r, k, kb, pj, pb):
        p = ConvTransEParams(kernels=k, kernel_bias=kb, proj=pj, proj_bias=pb, dropout=0.0)
        return ad.tensor_sum(ad.sigmoid(decode(p, h, r)))

    err = grad_check(
        fn, [h, r, params.kernels, params.kernel_bias, params.proj, params.proj_bias], eps=1e-5
    )
    assert err < 1e-4


def test_eval_mode_is_deterministic(np_gen):
    params = init_conv_transe(5, 3, 3, 0.4, np_gen)
    h = Tensor(np_gen.standard_normal((3, 5)))
    r = Tensor(np_gen.standard_normal((3, 5)))
    a = decode(params, h, r)
    b = decode(params, h, r)
    assert np.array_equal(a.values, b.values)


def test_paired_decoders_never_share_parameters(np_gen):
    a = init_conv_transe(4, 2, 3, 0.0, np_gen)
    b = init_conv_transe(4, 2, 3, 0.0, np_gen)
    shared = set(id(t) for t in ad.named_tensors(a).values()) & set(
        id(t) for t in ad.named_tensors(b).values()
    )
    assert not shared


def test_length_mismatch_rejected(np_gen):
    params = init_conv_transe(4, 2, 3, 0.0, np_gen)
    with pytest.raises(ValueError):
        decode(params, Tensor(np.ones((2, 4))), Tensor(np.ones((2, 5))))
