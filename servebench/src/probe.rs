//! Direct probes of single layers through their public functions:
//! kernels, engines, the disk queue and the dataflow runtime. Each
//! probe times a fixed amount of work and reports a median, so the
//! traced run can show where a served request's time should go.

use condor::AcceleratorReplica;
use condor_kernels::{
    conv2d, qconv2d, quantize_into, quantize_weights_per_channel, ConvGeometry, QWorkspace,
    QuantParams, Workspace,
};
use condor_nn::{FastEngine, GoldenEngine, LayerKind, Network, NodeId, QuantizedEngine};
use condor_queue::{DiskQueue, DiskQueueConfig, Priority};
use condor_tensor::Tensor;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Median over `rounds` of the seconds one call of `f` takes.
fn median_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Per-image time of the public `conv2d` (f32) and `qconv2d` (int8)
/// kernels summed over every convolution of `net`, in microseconds.
pub fn conv_kernels_us(net: &Network, input: &Tensor) -> Result<(f64, f64), String> {
    const ROUNDS: usize = 15;
    let shapes = net.input_shapes().map_err(|e| e.to_string())?;
    let (mut f32_us, mut i8_us) = (0.0, 0.0);
    // The activations entering each convolution come from the golden
    // path, so both kernels see realistic value ranges.
    let acts = GoldenEngine::new(net)
        .and_then(|g| g.infer_all_layers(input))
        .map_err(|e| e.to_string())?;
    for (i, layer) in net.layers.iter().enumerate() {
        let LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            ..
        } = layer.kind
        else {
            continue;
        };
        let in_shape = shapes[i];
        let out_shape = layer
            .kind
            .output_shape(in_shape)
            .map_err(|e| format!("{e:?}"))?;
        let geo = ConvGeometry {
            in_c: in_shape.c,
            in_h: in_shape.h,
            in_w: in_shape.w,
            kernel,
            stride,
            pad,
            out_h: out_shape.h,
            out_w: out_shape.w,
        };
        let lw = net
            .weights_of(&layer.name)
            .ok_or_else(|| format!("{} has no weights", layer.name))?;
        let x = match net.inputs_of(NodeId::from_index(i)).first() {
            Some(pred) => acts[pred.index()].as_slice(),
            None => input.as_slice(),
        };
        let w = lw.weights.as_slice();
        let b = lw.bias.as_ref().map(|t| t.as_slice());
        let mut out = vec![0.0f32; out_shape.len()];
        let mut ws = Workspace::new();
        f32_us += 1e6
            * median_secs(ROUNDS, || {
                conv2d(
                    black_box(x),
                    w,
                    b,
                    num_output,
                    &geo,
                    Some(0.0),
                    &mut out,
                    &mut ws,
                );
                black_box(&out);
            });

        // Int8: the symmetric per-channel scheme of condor-kernels.
        let abs_max = |v: &[f32]| v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let in_q = QuantParams::from_abs_max(abs_max(x));
        let out_q = QuantParams::from_abs_max(abs_max(&out));
        let mut xq = vec![0i8; x.len()];
        quantize_into(x, in_q, &mut xq);
        let mut wq = vec![0i8; w.len()];
        let w_params = quantize_weights_per_channel(w, num_output, &mut wq);
        let multipliers: Vec<f32> = w_params
            .iter()
            .map(|p| in_q.scale * p.scale / out_q.scale)
            .collect();
        let bias_q: Option<Vec<i32>> = b.map(|b| {
            b.iter()
                .zip(&w_params)
                .map(|(&bv, p)| (bv / (in_q.scale * p.scale)).round() as i32)
                .collect()
        });
        let mut outq = vec![0i8; out_shape.len()];
        let mut qws = QWorkspace::new();
        i8_us += 1e6
            * median_secs(ROUNDS, || {
                qconv2d(
                    black_box(&xq),
                    &wq,
                    bias_q.as_deref(),
                    num_output,
                    &geo,
                    &multipliers,
                    true,
                    &mut outq,
                    &mut qws,
                );
                black_box(&outq);
            });
    }
    Ok((f32_us, i8_us))
}

/// Milliseconds per image of `FastEngine` and a calibrated
/// `QuantizedEngine` over `images`.
pub fn engines_ms(
    net: &Network,
    images: &[Tensor],
    calib: &[Tensor],
) -> Result<(f64, f64), String> {
    const ROUNDS: usize = 3;
    let per_image = 1e3 / images.len() as f64;
    let mut fast = FastEngine::new(net).map_err(|e| e.to_string())?;
    let fast_ms = per_image
        * median_secs(ROUNDS, || {
            for img in images {
                black_box(fast.infer(img).ok());
            }
        });
    let mut quant = QuantizedEngine::calibrate(net, calib).map_err(|e| e.to_string())?;
    let int8_ms = per_image
        * median_secs(ROUNDS, || {
            for img in images {
                black_box(quant.infer(img).ok());
            }
        });
    Ok((fast_ms, int8_ms))
}

/// Median microseconds of `DiskQueue::append` and `ack` (fsync on) for
/// `n` records of `payload_len` bytes, in a fresh queue under `dir`.
pub fn disk_queue_us(dir: &Path, payload_len: usize, n: usize) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (queue, _) = DiskQueue::open(DiskQueueConfig::new(dir)).map_err(|e| e.to_string())?;
    let payload = vec![0xA5u8; payload_len];
    let mut ids = Vec::with_capacity(n);
    let mut append = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        ids.push(
            queue
                .append(&payload, Priority::Standard)
                .map_err(|e| e.to_string())?,
        );
        append.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut ack = Vec::with_capacity(n);
    for id in ids {
        let t = Instant::now();
        queue.ack(id).map_err(|e| e.to_string())?;
        ack.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(queue);
    let _ = std::fs::remove_dir_all(dir);
    Ok((median(&append), median(&ack)))
}

/// Dataflow runtime probes on a deployment: batch-1 latency and the
/// per-image time of a 16-image batch, in milliseconds.
pub fn dataflow_ms(replica: &AcceleratorReplica, images: &[Tensor]) -> Result<(f64, f64), String> {
    let acc = replica.accelerator();
    let mut err = None;
    let mut run = |batch: &[Tensor]| {
        if let Err(e) = acc.infer_batch(batch) {
            err = Some(e.to_string());
        }
    };
    let batch1 = 1e3 * median_secs(31, || run(&images[..1]));
    let b16 = 1e3 / 16.0 * median_secs(11, || run(&images[..16]));
    match err {
        Some(e) => Err(e),
        None => Ok((batch1, b16)),
    }
}
