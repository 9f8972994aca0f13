//! Untraced benchmark run: prints the end-to-end metrics of one
//! workload. Usually launched through `run.py`.

fn main() {
    let args = anc_perfbench::args_or_exit();
    anc_perfbench::e2e::run(&args).print();
}
