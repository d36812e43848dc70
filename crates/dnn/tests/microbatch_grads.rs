//! The per-micro-batch gradient contract: a layer's `backward` adds one
//! materialized gradient per micro-batch to `grads`. After micro-batches
//! A then B, `grads` must be bitwise `(0 + g_A) + g_B`, where `g_A` and
//! `g_B` are what a fresh layer accumulates from A alone and from B alone.
//! Folding per-micro-batch gradients in micro-batch order (bitwise
//! parallel replay, paper §5.2) reproduces the sequential sum only for
//! layers that keep this contract; a layer that adds per example into the
//! running buffer reassociates the sum and breaks it.

use swift_dnn::{Conv2d, Layer, Linear, Mode, StepCtx};
use swift_tensor::{CounterRng, Tensor};

/// Runs A then B through one layer and each alone through fresh copies,
/// and compares the accumulated gradients bit for bit.
fn assert_one_gradient_per_microbatch(
    make: impl Fn() -> Box<dyn Layer>,
    batch: usize,
    in_dim: usize,
    out_dim: usize,
) {
    let mut rng = CounterRng::new(0x6AB, 0);
    let (ctx_a, ctx_b) = (StepCtx::new(0, 0), StepCtx::new(0, 1));
    let x_a = Tensor::randn([batch, in_dim], 0.0, 1.0, &mut rng);
    let x_b = Tensor::randn([batch, in_dim], 0.0, 1.0, &mut rng);
    let dy_a = Tensor::randn([batch, out_dim], 0.0, 1.0, &mut rng);
    let dy_b = Tensor::randn([batch, out_dim], 0.0, 1.0, &mut rng);

    let alone = |ctx: StepCtx, x: &Tensor, dy: &Tensor| -> Vec<Tensor> {
        let mut layer = make();
        layer.forward(ctx, x, Mode::Train);
        layer.backward(ctx, dy);
        layer.grads().to_vec()
    };
    let g_a = alone(ctx_a, &x_a, &dy_a);
    let g_b = alone(ctx_b, &x_b, &dy_b);

    // 1F1B order: both forwards in flight, then both backwards.
    let mut layer = make();
    layer.forward(ctx_a, &x_a, Mode::Train);
    layer.forward(ctx_b, &x_b, Mode::Train);
    layer.backward(ctx_a, &dy_a);
    layer.backward(ctx_b, &dy_b);

    let name = layer.name();
    for (i, ((got, a), b)) in layer.grads().iter().zip(&g_a).zip(&g_b).enumerate() {
        let want = Tensor::zeros(*a.shape()).add(a).add(b);
        assert!(
            got.bit_eq(&want),
            "{name}: gradient {i} after A then B is not (0 + g_A) + g_B \
             (max |diff| {:e})",
            got.max_abs_diff(&want)
        );
    }
}

#[test]
fn conv2d_adds_one_gradient_per_microbatch() {
    let (c_in, c_out, h, w) = (3, 5, 7, 5);
    assert_one_gradient_per_microbatch(
        || {
            Box::new(Conv2d::new(
                "conv",
                c_in,
                c_out,
                h,
                w,
                3,
                &mut CounterRng::new(1, 0),
            ))
        },
        4,
        c_in * h * w,
        c_out * h * w,
    );
}

#[test]
fn linear_adds_one_gradient_per_microbatch() {
    assert_one_gradient_per_microbatch(
        || Box::new(Linear::new("fc", 6, 4, &mut CounterRng::new(2, 0))),
        5,
        6,
        4,
    );
}
