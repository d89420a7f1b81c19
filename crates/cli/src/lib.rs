//! Library backing the `subrank` command-line tool.
//!
//! Everything the binary does is implemented (and unit-tested) here; the
//! binary's `main` only parses `std::env::args` and prints.
//!
//! ```text
//! subrank rank   --graph web.edges --subgraph ids.txt [--algorithm approxrank]
//! subrank global --graph web.edges [--threads 4]
//! subrank compare --graph web.edges --subgraph ids.txt --truth yes
//! subrank stats  --graph web.edges
//! subrank gen    --dataset au --pages 50000 --out web.edges
//! subrank report --input trace.jsonl
//! subrank keyword --graph web.edges --subgraph ids.txt --keyword jaguar [--labels pages.txt]
//! subrank serve  --graph web.edges --addr 127.0.0.1:7878 [--shards 2]
//! subrank partition --graph web.edges --shards 4 --out shards/
//! ```
//!
//! The solving subcommands accept `--trace` (append a run report),
//! `--trace-json FILE` (dump the raw event stream as JSON lines, which
//! `subrank report` re-renders), and `--quiet` (suppress `#` comments).

pub mod args;
pub mod commands;

pub use args::{Cli, Command};

/// Entry point shared by the binary and the integration tests: parses
/// `argv` (without the program name), runs the command, and returns the
/// rendered output or an error message.
pub fn run(argv: &[String]) -> Result<String, String> {
    let cli = Cli::parse(argv)?;
    match cli.command {
        Command::Rank(a) => commands::rank::run(&a),
        Command::Global(a) => commands::global::run(&a),
        Command::Stats(a) => commands::stats::run(&a),
        Command::Compare(a) => commands::compare::run(&a),
        Command::Gen(a) => commands::generate::run(&a),
        Command::Report(a) => commands::report::run(&a),
        Command::Serve(a) => commands::serve::run(&a),
        Command::Keyword(a) => commands::keyword::run(&a),
        Command::Partition(a) => commands::partition::run(&a),
    }
}
