//! Table 2 — single-machine epoch time for GCN / PinSage / MAGNN across
//! the five systems. "X" = the system cannot express the model; "OOM" =
//! the execution exceeded the transient-memory budget (a fixed multiple
//! of the fused working set, standing in for the paper's 512 GB boxes —
//! see `flexgraph_bench::table_budget`).
//!
//! `FLEXGRAPH_BENCH_STRICT=1` additionally asserts the wall-time claim
//! behind fusion: FlexGraph's GCN epoch beats the PyTorch-like
//! (materializing) one on every dataset. A FlexGraph GCN cell that is
//! not a time fails the gate; a PyTorch-like cell may only be OOM, and
//! that dataset is reported as skipped. It is a release-mode gate; a
//! debug build refuses it, since unoptimized timings say nothing.

use flexgraph_bench::workloads::{run_epoch, ModelKind, System};
use flexgraph_bench::{all_datasets, table_budget, Cell};

fn main() {
    let strict = std::env::var("FLEXGRAPH_BENCH_STRICT").as_deref() == Ok("1");
    assert!(
        !(strict && cfg!(debug_assertions)),
        "the strict wall-time gate needs a release build"
    );
    let datasets = all_datasets();
    let mut failed = Vec::new();
    let mut skipped = Vec::new();
    println!("Table 2: runtime in seconds for 1 epoch on a single machine\n");
    println!(
        "{:<8} {:<13} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Model", "Dataset", "PyT.", "DGL", "DistD.", "Euler", "FlexG."
    );

    for model in [ModelKind::Gcn, ModelKind::PinSage, ModelKind::Magnn] {
        for ds in &datasets {
            // The paper runs MAGNN on IMDB plus the three big graphs and
            // the other models on the three big graphs only.
            let is_imdb = ds.name.contains("imdb");
            if model != ModelKind::Magnn && is_imdb {
                continue;
            }
            let budget = table_budget(ds);
            let cells: Vec<Cell> = System::all()
                .into_iter()
                .map(|s| Cell::from_result(run_epoch(s, model, ds, &budget).map(|d| (d, ()))))
                .collect();
            print!("{:<8} {:<13}", model.name(), ds.name);
            for c in &cells {
                print!(" {c}");
            }
            println!();
            // `System::all()` runs PyTorch-like first, FlexGraph last.
            if model == ModelKind::Gcn {
                match (&cells[0], &cells[cells.len() - 1]) {
                    (Cell::Time(pyt), Cell::Time(flex)) if flex < pyt => {}
                    (Cell::Oom, Cell::Time(_)) => skipped.push(ds.name.clone()),
                    (pyt, flex) => failed.push(format!(
                        "{}: {} vs {}",
                        ds.name,
                        flex.to_string().trim(),
                        pyt.to_string().trim()
                    )),
                }
            }
        }
    }
    println!(
        "\nexpected shapes: FlexGraph fastest everywhere; mini-batch GCN catastrophic on \
         dense/skewed graphs (Euler OOM); only FlexGraph expresses MAGNN; walk simulation \
         dominates GAS-like PinSage."
    );
    if strict {
        assert!(
            failed.is_empty(),
            "fused GCN must beat materialized GCN: {failed:?}"
        );
        println!(
            "strict gate: FlexGraph GCN faster than PyTorch-like on every dataset \
             (PyTorch-like OOM, skipped: {skipped:?})"
        );
    }
}
