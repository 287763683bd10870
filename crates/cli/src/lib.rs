//! Argument parsing and command dispatch for the `distgnn` CLI.
//!
//! Hand-rolled parsing (no external dependency): the CLI surface is
//! small and stable. Split from `main.rs` so the parser is unit-tested.

use distgnn_comm::{FaultPlan, ProgressMode, RetryPolicy, WireCodec};
use distgnn_core::DistMode;
use distgnn_graph::ScaledConfig;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    pub command: Command,
    pub dataset: String,
    pub scale: f64,
    pub epochs: usize,
    pub sockets: usize,
    pub mode: DistMode,
    pub lr: f32,
    pub blocks: Option<usize>,
    pub seed: u64,
    /// Fault-injection scenario for `dist-train` chaos replays.
    pub faults: FaultPlan,
    /// Collective retry budget (`None` = the standard ladder).
    pub retries: Option<u32>,
    /// Checkpoint cadence in epochs (0 = no checkpoints).
    pub checkpoint_every: usize,
    /// Root directory for checkpoints.
    pub checkpoint_dir: Option<String>,
    /// Start from the newest checkpoint instead of from scratch.
    pub resume: bool,
    /// Relaunches allowed after a failed attempt.
    pub max_restarts: usize,
    /// Resume a checkpoint written by a different world size: merge it
    /// into one global state and re-shard for `--sockets` ranks.
    pub elastic_resume: bool,
    /// On a fail-stop crash, survivors adopt the dead rank's shard from
    /// the newest checkpoint and continue at N−1 (no world restart).
    pub adopt_on_crash: bool,
    /// Write a Chrome `trace_event` timeline here (enables recording).
    pub trace_out: Option<String>,
    /// Write the end-of-run metrics JSON here (enables recording).
    pub metrics_out: Option<String>,
    /// Overlap-first epoch loop with this comm progress mode
    /// (`None` = blocking loop).
    pub progress: Option<ProgressMode>,
    /// Wire codec for compressed communication
    /// (`WireCodec::None` = exact uncompressed paths).
    pub compress: WireCodec,
    /// Explicit gradient-stream codec override (`None` = derive from
    /// `compress`; top-k derives int8 — see `DistConfig::gradient_codec`).
    pub compress_grads: Option<WireCodec>,
    /// Disable error feedback (naive-truncation baseline).
    pub no_error_feedback: bool,
    /// Store checkpoints with bf16-packed weights.
    pub lossy_checkpoints: bool,
    /// Queries to replay against the serving engine (`serve`).
    pub queries: usize,
    /// Query batch size for the serving engine (`serve`).
    pub batch: usize,
    /// Graph-delta batches interleaved into the query stream (`serve`).
    pub deltas: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Single-socket full-batch training.
    Train,
    /// Distributed training on the simulated cluster.
    DistTrain,
    /// Print dataset statistics and partition quality.
    Inspect,
    /// Serve node-classification queries from a trained checkpoint.
    Serve,
    /// Print usage.
    Help,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            command: Command::Help,
            dataset: "products".into(),
            scale: 1.0,
            epochs: 50,
            sockets: 4,
            mode: DistMode::CdR { delay: 5 },
            lr: 0.01,
            blocks: None,
            seed: 0xD15,
            faults: FaultPlan::none(),
            retries: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            max_restarts: 0,
            elastic_resume: false,
            adopt_on_crash: false,
            trace_out: None,
            metrics_out: None,
            progress: None,
            compress: WireCodec::None,
            compress_grads: None,
            no_error_feedback: false,
            lossy_checkpoints: false,
            queries: 100_000,
            batch: 64,
            deltas: 0,
        }
    }
}

impl Cli {
    /// The [`RetryPolicy`] the `--retries` flag selects: absent means
    /// the standard ladder, `0` disables retrying, `N` gives `N`
    /// exponential rounds starting at one barrier.
    pub fn retry_policy(&self) -> RetryPolicy {
        match self.retries {
            None => RetryPolicy::standard(),
            Some(0) => RetryPolicy::none(),
            Some(n) => RetryPolicy { max_retries: n, initial_backoff: 1, exponential: true },
        }
    }

    /// True when any recovery machinery (checkpoints, resume, or
    /// supervised restarts) is requested.
    pub fn wants_recovery(&self) -> bool {
        self.checkpoint_dir.is_some()
            || self.resume
            || self.max_restarts > 0
            || self.elastic_resume
            || self.adopt_on_crash
    }

    /// True when phase recording should be on (any exporter requested).
    pub fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }
}

/// Usage text.
pub const USAGE: &str = "\
distgnn — DistGNN (SC'21) reproduction trainer

USAGE:
    distgnn <COMMAND> [OPTIONS]
    distgnn [OPTIONS]              (no command = dist-train)

COMMANDS:
    train         single-socket full-batch training
    dist-train    distributed training on a simulated multi-socket cluster
    inspect       dataset statistics and Libra partition quality
    serve         answer node-classification queries from a checkpoint
    help          show this text

OPTIONS:
    --dataset <am|reddit|products|proteins|papers>   (default products)
    --scale <f64>        dataset scale factor         (default 1.0)
    --epochs <usize>     training epochs              (default 50)
    --sockets <usize>    simulated sockets            (default 4)
    --mode <0c|cd-0|cd-R>  distributed algorithm      (default cd-5)
    --algo <...>         alias for --mode; `cd-r` = cd-5
    --lr <f32>           learning rate                (default 0.01)
    --blocks <usize>     kernel cache blocks n_B      (default auto)
    --seed <u64>         partitioning seed            (default 0xD15)
    --faults <spec>      fault-injection scenario     (default none)
    --progress <polled|thread>  overlap-first epoch loop: async collectives
                         progressed by polling or by per-rank progress
                         threads (default: blocking loop; trained params
                         are bit-identical either way)
    --compress <none|bf16|topk=K|int8>  wire codec for compressed comm:
                         gradient AllReduces go through error-feedback
                         compression, DRPA exchanges ship delta-encoded
                         payloads (default none = exact paths). topk
                         applies to the DRPA streams; the sum-reduced
                         gradient stream derives int8 under topk (sparse
                         spikes destabilize Adam's second moment)
    --compress-grads <none|bf16|topk=K|int8>  force the gradient-stream
                         codec instead of deriving it from --compress
    --no-error-feedback  drop each epoch's compression error instead of
                         carrying it into the next gradient (baseline)
    --lossy-checkpoints  store checkpoint weights as bf16 (half the file,
                         resume no longer bit-exact)

RECOVERY OPTIONS (dist-train):
    --retries <u32>          collective retry rounds before abort
                             (default: 3 exponential rounds; 0 = fail fast)
    --checkpoint-every <n>   write a consistent checkpoint every n epochs
    --checkpoint-dir <path>  root directory for ckpt-<epoch>/ directories
    --resume                 start from the newest checkpoint in the dir
    --max-restarts <n>       relaunch from the last checkpoint up to n
                             times after a failed attempt (default 0)
    --elastic-resume         allow --resume from a checkpoint written by a
                             different world size: merge it into one global
                             state and re-shard it for --sockets ranks
    --adopt-on-crash         on a fail-stop crash, the survivors adopt the
                             dead rank's shard from the newest checkpoint
                             and keep training at N-1 (no world restart)

SERVE OPTIONS (serve; also uses --dataset/--scale/--seed to regenerate
the graph the checkpoint was trained on, and --checkpoint-dir to find it):
    --queries <n>            queries to replay against the engine
                             (power-law traffic; default 100000)
    --batch <n>              query batch size (default 64; 1 = point
                             queries)
    --deltas <n>             graph-delta batches to interleave into the
                             stream, exercising incremental
                             re-aggregation (default 0)
    --metrics-out <path>     write serving metrics JSON (query counters,
                             cache hit rates, phase timings)

OBSERVABILITY OPTIONS (dist-train):
    --trace-out <path>       write a Chrome trace_event timeline (open in
                             Perfetto / chrome://tracing); enables recording
    --metrics-out <path>     write end-of-run metrics JSON (per-epoch phase
                             totals, comm volume, retries, staleness)

FAULT SPECS (comma-separated; deterministic per seed):
    seed=<u64>                  decision seed
    drop=<p>[:src->dst]         drop messages with probability p
    delay=<p>x<k>[:src->dst]    deliver k barriers late with probability p
    reorder=<p>[:src->dst]      swap adjacent messages with probability p
    stall=<rank>@<from>+<n>     rank sleeps through n epochs from <from>
    crash=<rank>@<epoch>        rank fail-stops at the start of <epoch>
    (src/dst are rank numbers or *; e.g.
     --faults 'seed=42,drop=0.1,delay=0.05x4:0->*,stall=1@5+2,crash=2@9')
";

/// Parses an argument vector (excluding argv[0]).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    // A leading flag means "no subcommand": default to dist-train, the
    // command every exporter flag targets.
    cli.command = match it.peek().map(|s| s.as_str()) {
        Some(s) if s.starts_with("--") => Command::DistTrain,
        _ => match it.next().map(String::as_str) {
            Some("train") => Command::Train,
            Some("dist-train") => Command::DistTrain,
            Some("inspect") => Command::Inspect,
            Some("serve") => Command::Serve,
            Some("help") | None => Command::Help,
            Some(other) => return Err(format!("unknown command `{other}`")),
        },
    };
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("flag `{flag}` needs a value"))
        };
        match flag.as_str() {
            "--dataset" => cli.dataset = value()?.clone(),
            "--scale" => cli.scale = parse_num(flag, value()?)?,
            "--epochs" => cli.epochs = parse_num(flag, value()?)?,
            "--sockets" => cli.sockets = parse_num(flag, value()?)?,
            "--lr" => cli.lr = parse_num(flag, value()?)?,
            "--seed" => cli.seed = parse_num(flag, value()?)?,
            "--blocks" => cli.blocks = Some(parse_num(flag, value()?)?),
            "--mode" | "--algo" => cli.mode = parse_mode(value()?)?,
            "--trace-out" => cli.trace_out = Some(value()?.clone()),
            "--metrics-out" => cli.metrics_out = Some(value()?.clone()),
            "--faults" => cli.faults = FaultPlan::parse(value()?)?,
            "--retries" => cli.retries = Some(parse_num(flag, value()?)?),
            "--checkpoint-every" => cli.checkpoint_every = parse_num(flag, value()?)?,
            "--checkpoint-dir" => cli.checkpoint_dir = Some(value()?.clone()),
            "--resume" => cli.resume = true,
            "--max-restarts" => cli.max_restarts = parse_num(flag, value()?)?,
            "--elastic-resume" => cli.elastic_resume = true,
            "--adopt-on-crash" => cli.adopt_on_crash = true,
            "--progress" => cli.progress = Some(ProgressMode::parse(value()?)?),
            "--compress" => cli.compress = WireCodec::parse(value()?)?,
            "--compress-grads" => cli.compress_grads = Some(WireCodec::parse(value()?)?),
            "--no-error-feedback" => cli.no_error_feedback = true,
            "--lossy-checkpoints" => cli.lossy_checkpoints = true,
            "--queries" => cli.queries = parse_num(flag, value()?)?,
            "--batch" => cli.batch = parse_num(flag, value()?)?,
            "--deltas" => cli.deltas = parse_num(flag, value()?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid value `{v}` for `{flag}`"))
}

/// Parses `0c`, `cd-0`, `cd-5`, `cd-<r>`; the literal `cd-r` selects
/// the paper's default delay of 5.
pub fn parse_mode(s: &str) -> Result<DistMode, String> {
    match s {
        "0c" => Ok(DistMode::Oc),
        "cd-0" => Ok(DistMode::Cd0),
        "cd-r" => Ok(DistMode::CdR { delay: 5 }),
        other => other
            .strip_prefix("cd-")
            .and_then(|r| r.parse::<usize>().ok())
            .map(|delay| DistMode::CdR { delay })
            .ok_or_else(|| format!("unknown mode `{other}` (want 0c, cd-0, cd-r or cd-<r>)")),
    }
}

/// Resolves a dataset name to its scaled config.
pub fn dataset_config(name: &str, scale: f64) -> Result<ScaledConfig, String> {
    let base = match name {
        "am" => ScaledConfig::am_s(),
        "reddit" => ScaledConfig::reddit_s(),
        "products" => ScaledConfig::products_s(),
        "proteins" => ScaledConfig::proteins_s(),
        "papers" => ScaledConfig::papers_s(),
        other => return Err(format!("unknown dataset `{other}`")),
    };
    Ok(base.scaled_by(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let cli = parse(&argv(
            "dist-train --dataset proteins --scale 0.5 --epochs 10 --sockets 8 \
             --mode cd-3 --lr 0.05 --compress bf16 --blocks 4 --seed 7",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::DistTrain);
        assert_eq!(cli.dataset, "proteins");
        assert_eq!(cli.scale, 0.5);
        assert_eq!(cli.epochs, 10);
        assert_eq!(cli.sockets, 8);
        assert_eq!(cli.mode, DistMode::CdR { delay: 3 });
        assert_eq!(cli.lr, 0.05);
        assert_eq!(cli.compress, WireCodec::Bf16);
        assert_eq!(cli.blocks, Some(4));
        assert_eq!(cli.seed, 7);
    }

    #[test]
    fn defaults_apply() {
        let cli = parse(&argv("train")).unwrap();
        assert_eq!(cli.command, Command::Train);
        assert_eq!(cli.dataset, "products");
        assert_eq!(cli.mode, DistMode::CdR { delay: 5 });
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn rejects_unknown_command_flag_and_values() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("train --what 3")).is_err());
        assert!(parse(&argv("train --epochs nope")).is_err());
        assert!(parse(&argv("train --epochs")).is_err());
    }

    #[test]
    fn mode_parsing_covers_paper_names() {
        assert_eq!(parse_mode("0c").unwrap(), DistMode::Oc);
        assert_eq!(parse_mode("cd-0").unwrap(), DistMode::Cd0);
        assert_eq!(parse_mode("cd-5").unwrap(), DistMode::CdR { delay: 5 });
        assert!(parse_mode("cd-x").is_err());
        assert!(parse_mode("sync").is_err());
    }

    #[test]
    fn faults_flag_builds_a_plan() {
        let cli = parse(&argv("dist-train --faults seed=9,drop=0.2,stall=1@3+2")).unwrap();
        assert_eq!(cli.faults.seed, 9);
        assert_eq!(cli.faults.drops.len(), 1);
        assert!(cli.faults.stalled(1, 4));
        assert!(parse(&argv("dist-train --faults drop=2.0")).is_err());
        assert!(parse(&argv("dist-train")).unwrap().faults.is_none());
    }

    #[test]
    fn recovery_flags_parse_and_default_off() {
        let cli = parse(&argv(
            "dist-train --checkpoint-every 3 --checkpoint-dir /tmp/ck --resume \
             --max-restarts 2 --retries 5 --epochs 12",
        ))
        .unwrap();
        assert_eq!(cli.checkpoint_every, 3);
        assert_eq!(cli.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert!(cli.resume);
        assert_eq!(cli.max_restarts, 2);
        assert_eq!(cli.retry_policy().max_retries, 5);
        assert!(cli.wants_recovery());

        let plain = parse(&argv("dist-train")).unwrap();
        assert!(!plain.wants_recovery());
        assert_eq!(plain.retry_policy(), RetryPolicy::standard());
        assert_eq!(
            parse(&argv("dist-train --retries 0")).unwrap().retry_policy(),
            RetryPolicy::none()
        );
        // `--resume` is boolean: the next token is a flag, not a value.
        let r = parse(&argv("dist-train --resume --epochs 7")).unwrap();
        assert!(r.resume);
        assert_eq!(r.epochs, 7);
    }

    #[test]
    fn elastic_flags_parse_and_select_the_elastic_path() {
        let plain = parse(&argv("dist-train")).unwrap();
        assert!(!plain.elastic_resume && !plain.adopt_on_crash);

        let e = parse(&argv("dist-train --resume --elastic-resume --sockets 4")).unwrap();
        assert!(e.elastic_resume);
        assert!(e.wants_recovery());

        let a = parse(&argv(
            "dist-train --adopt-on-crash --faults crash=2@4 --checkpoint-every 2 \
             --checkpoint-dir ck",
        ))
        .unwrap();
        assert!(a.adopt_on_crash && !a.elastic_resume);
        assert!(a.wants_recovery());
    }

    #[test]
    fn leading_flag_defaults_to_dist_train_with_exporters() {
        let cli = parse(&argv(
            "--algo cd-r --trace-out trace.json --metrics-out metrics.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::DistTrain);
        assert_eq!(cli.mode, DistMode::CdR { delay: 5 });
        assert_eq!(cli.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(cli.metrics_out.as_deref(), Some("metrics.json"));
        assert!(cli.wants_telemetry());
        assert!(!parse(&argv("dist-train")).unwrap().wants_telemetry());
    }

    #[test]
    fn progress_flag_selects_overlap() {
        let cli = parse(&argv("dist-train --progress thread")).unwrap();
        assert_eq!(cli.progress, Some(ProgressMode::Thread));
        assert_eq!(
            parse(&argv("dist-train --progress polled")).unwrap().progress,
            Some(ProgressMode::Polled)
        );
        assert_eq!(parse(&argv("dist-train")).unwrap().progress, None);
        assert!(parse(&argv("dist-train --progress eager")).is_err());
    }

    #[test]
    fn compress_flag_parses_every_codec() {
        assert_eq!(parse(&argv("dist-train")).unwrap().compress, WireCodec::None);
        assert_eq!(
            parse(&argv("dist-train --compress bf16")).unwrap().compress,
            WireCodec::Bf16
        );
        assert_eq!(
            parse(&argv("dist-train --compress topk=10")).unwrap().compress,
            WireCodec::TopK { percent: 10 }
        );
        assert_eq!(
            parse(&argv("dist-train --compress int8")).unwrap().compress,
            WireCodec::Int8
        );
        assert_eq!(
            parse(&argv("dist-train --compress none")).unwrap().compress,
            WireCodec::None
        );
        assert!(parse(&argv("dist-train --compress topk=0")).is_err());
        assert!(parse(&argv("dist-train --compress gzip")).is_err());
    }

    #[test]
    fn compress_grads_override_parses() {
        assert_eq!(parse(&argv("dist-train")).unwrap().compress_grads, None);
        assert_eq!(
            parse(&argv("dist-train --compress topk=10 --compress-grads bf16"))
                .unwrap()
                .compress_grads,
            Some(WireCodec::Bf16)
        );
        assert_eq!(
            parse(&argv("dist-train --compress-grads topk=5")).unwrap().compress_grads,
            Some(WireCodec::TopK { percent: 5 })
        );
        assert!(parse(&argv("dist-train --compress-grads gzip")).is_err());
    }

    #[test]
    fn compression_switches_parse() {
        let cli = parse(&argv("dist-train --compress bf16 --no-error-feedback")).unwrap();
        assert!(cli.no_error_feedback);
        assert!(parse(&argv("dist-train --lossy-checkpoints")).unwrap().lossy_checkpoints);
    }

    #[test]
    fn crash_fault_rule_parses() {
        let cli = parse(&argv("dist-train --faults crash=2@9")).unwrap();
        assert_eq!(cli.faults.crash_at(9), Some(2));
        assert_eq!(cli.faults.crash_at(8), None);
    }

    #[test]
    fn serve_flags_parse_with_defaults() {
        let cli = parse(&argv(
            "serve --dataset reddit --scale 0.25 --checkpoint-dir ck \
             --queries 5000 --batch 32 --deltas 10 --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.checkpoint_dir.as_deref(), Some("ck"));
        assert_eq!(cli.queries, 5000);
        assert_eq!(cli.batch, 32);
        assert_eq!(cli.deltas, 10);
        assert_eq!(cli.metrics_out.as_deref(), Some("m.json"));

        let plain = parse(&argv("serve")).unwrap();
        assert_eq!(plain.queries, 100_000);
        assert_eq!(plain.batch, 64);
        assert_eq!(plain.deltas, 0);
        assert!(parse(&argv("serve --batch nope")).is_err());
    }

    #[test]
    fn dataset_lookup() {
        assert!(dataset_config("reddit", 1.0).is_ok());
        assert!(dataset_config("webscale", 1.0).is_err());
        let c = dataset_config("papers", 0.1).unwrap();
        assert_eq!(c.num_vertices, 5000);
    }
}
