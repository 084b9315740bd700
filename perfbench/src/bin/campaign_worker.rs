//! The campaign shard worker the `diagnose` workload hands to
//! `stfsm_serve::Coordinator::worker_binary`, built with the benchmark so
//! the coordinator never depends on the repository's examples.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(stfsm_serve::worker::run(&args));
}
