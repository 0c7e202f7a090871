//! Figure 15: buffer-optimization speedup (fused single-buffer compression +
//! parallel decompression vs per-chunk sequential processing) as a function
//! of chunk count and payload size.

use super::ExpOptions;
use crate::format::{bytes, f2, TextTable};
use crate::workloads::Scale;
use dlrm_compress::buffer;
use dlrm_compress::CompressorKind;
use std::time::Instant;

/// Build `chunks` equal chunks totalling `total_floats` values of DLRM-like
/// (repeat-heavy) embedding data.
fn chunked_payload(total_floats: usize, chunks: usize, dim: usize) -> Vec<Vec<f32>> {
    let per_chunk = total_floats / chunks;
    (0..chunks)
        .map(|c| {
            (0..per_chunk)
                .map(|i| {
                    let vector_id = (i / dim + c * 7) % 37;
                    ((vector_id * dim + i % dim) as f32 * 0.013).sin() * 0.2
                })
                .collect()
        })
        .collect()
}

/// Figure 15: normalised time of fused vs per-chunk compression.
pub fn fig15(opts: &ExpOptions) -> String {
    let (total_bytes_options, dim, repeats) = match opts.scale {
        Scale::Quick => (vec![1usize << 20], 32usize, 1usize),
        Scale::Full => (vec![8 << 20, 32 << 20], 64, 3),
    };
    let comp = CompressorKind::OursHybrid.build();
    let mut out = String::from("Figure 15 — buffer optimization: fused single-buffer compression + parallel decompression\n\n");
    for total_bytes in total_bytes_options {
        let total_floats = total_bytes / 4;
        let mut table = TextTable::new(vec![
            "chunks",
            "naive comp (s)",
            "fused comp (s)",
            "comp speedup",
            "serial decomp (s)",
            "parallel decomp (s)",
            "decomp speedup",
        ]);
        for &chunks in &[2usize, 4, 8, 16] {
            let data = chunked_payload(total_floats, chunks, dim);
            let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();

            let mut naive_s = 0.0;
            let mut fused_s = 0.0;
            let mut serial_s = 0.0;
            let mut parallel_s = 0.0;
            for _ in 0..repeats {
                let t = Instant::now();
                let naive = buffer::compress_chunks_naive(comp.as_ref(), &refs, dim, 0.01)
                    .expect("compress");
                naive_s += t.elapsed().as_secs_f64();

                let t = Instant::now();
                let fused = buffer::compress_chunks_fused(comp.as_ref(), &refs, dim, 0.01)
                    .expect("compress");
                fused_s += t.elapsed().as_secs_f64();

                let t = Instant::now();
                let _ = buffer::decompress_chunks_serial(comp.as_ref(), &naive).expect("decomp");
                serial_s += t.elapsed().as_secs_f64();

                let t = Instant::now();
                let _ = buffer::decompress_chunks_parallel(comp.as_ref(), &fused).expect("decomp");
                parallel_s += t.elapsed().as_secs_f64();
            }
            table.row(vec![
                chunks.to_string(),
                format!("{:.4}", naive_s / repeats as f64),
                format!("{:.4}", fused_s / repeats as f64),
                f2(naive_s / fused_s.max(1e-12)),
                format!("{:.4}", serial_s / repeats as f64),
                format!("{:.4}", parallel_s / repeats as f64),
                f2(serial_s / parallel_s.max(1e-12)),
            ]);
        }
        out.push_str(&format!(
            "total payload {} (vector length {dim})\n{}\n",
            bytes(total_bytes as u64),
            table.render()
        ));
    }
    out.push_str("(The paper reports up to 2.04x from its single-kernel + atomic-offset design;\nthe CPU analogue runs the chunks in order, so its win comes from writing the\nsend buffer once; the decompression paths are the same on the CPU.)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_quick_renders_all_chunk_counts() {
        let report = fig15(&ExpOptions::quick());
        for chunks in ["2", "4", "8", "16"] {
            assert!(report.contains(chunks));
        }
    }
}
