//! Traced benchmark run: prints the per-layer metrics of one workload.
//! Usually launched through `run.py --trace 1`.

use anc_perfbench::alloc::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args = anc_perfbench::args_or_exit();
    anc_perfbench::traced::run(&args).print();
}
