//! Typed runtime configuration from the environment.
//!
//! Every `ST_*` knob the workspace honors is parsed here, once, with
//! validation errors instead of silent fallbacks: a malformed value
//! (`ST_BENCH_SCALE=abc`, `ST_PUBLISH_THRESHOLD=-1`) surfaces a
//! [`ConfigError`] naming the variable, the offending value, and the
//! expected shape — it no longer quietly reverts to a default, which
//! previously made a typo'd benchmark run look like a baseline run.
//!
//! Consumers:
//!
//! * [`TraversalConfig::default`](crate::traversal::TraversalConfig)
//!   applies the frontier knobs to every default-configured traversal
//!   in the process (panicking with the validation message — a bad
//!   environment should stop the run, not skew it);
//! * the `st-bench` binaries and Criterion benches read
//!   [`bench_scale`](RuntimeConfig::bench_scale);
//! * the `st-service` builder seeds its team layout and queue capacity
//!   from [`service_teams`](RuntimeConfig::service_teams) and
//!   [`service_queue_capacity`](RuntimeConfig::service_queue_capacity).
//!
//! | variable | type | meaning |
//! |---|---|---|
//! | `ST_PUBLISH_THRESHOLD` | integer ≥ 1 or `max` | private-buffer size that triggers publication |
//! | `ST_PUBLISH_ON_SLEEPERS` | bool | publish the buffer whenever sleepers are reported |
//! | `ST_LOCAL_BATCH` | integer ≥ 1 | owner dequeue batch per queue lock |
//! | `ST_DIRECTION` | `top-down` / `bottom-up` / `hybrid` | traversal direction strategy |
//! | `ST_HYBRID_ALPHA` | finite float > 0 | hybrid switch-forward weight (Beamer's α) |
//! | `ST_HYBRID_BETA` | finite float ≥ 1 | hybrid switch-back weight (Beamer's β) |
//! | `ST_PREFETCH_DISTANCE` | integer 0–256 | software-prefetch lookahead (0 disables) |
//! | `ST_HUGEPAGES` | bool | back CSR/workspace arrays with transparent huge pages |
//! | `ST_BENCH_SCALE` | integer (log2 n) | default problem scale of the bench bins |
//! | `ST_SERVICE_TEAMS` | comma list of integers ≥ 1 | service pool team widths, e.g. `4,2,2` |
//! | `ST_SERVICE_QUEUE_CAP` | integer ≥ 1 | service admission-queue capacity |
//! | `ST_LISTEN_ADDR` | `host:port` socket address | TCP bind address of the service front-end |
//! | `ST_MAX_CONNECTIONS` | integer ≥ 1 | concurrent TCP connections before `Busy` |
//! | `ST_RESULT_CACHE_CAP` | integer ≥ 0 | result-cache entries (0 disables caching) |
//! | `ST_JOURNAL_CAP` | integer 1–1048576 | telemetry event-journal ring capacity |
//! | `ST_SLOW_JOB_MS` | integer 1–3600000 | slow-job threshold (wall ms) for the full-metrics dump |
//! | `ST_LANE_WEIGHTS` | three integers ≥ 1, e.g. `4,2,1` | deficit-round-robin credits per High/Normal/Low lane |
//! | `ST_TENANT_QUOTA` | integer ≥ 1 | max queued jobs per tenant id |
//! | `ST_ELASTIC` | bool | enable the elastic pool controller |
//! | `ST_ELASTIC_IDLE_MS` | integer 1–3600000 | idle time before a team is shrunk |
//! | `ST_ELASTIC_BACKLOG` | integer ≥ 1 | queue depth that counts as sustained backlog |
//! | `ST_ELASTIC_MAX_WIDTH` | integer 1–512 | widest a team may grow |
//! | `ST_DELTA_REBUILD_FRACTION` | finite float 0–1 | patched-row fraction past which a COW delta is flattened to a fresh CSR |
//! | `ST_DYN_RECOMPUTE_FRACTION` | finite float ≥ 0 | repair-work budget of a batch update, as a fraction of n + m; a repair that would do more work recomputes the forest instead (0 always recomputes, > 1 never does) |

use std::fmt;

use crate::traversal::Direction;

/// A rejected environment value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable at fault.
    pub var: &'static str,
    /// The value it held.
    pub value: String,
    /// What was expected instead.
    pub reason: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

/// The process-wide `ST_*` environment knobs, parsed and validated.
///
/// Every field is `None` when the corresponding variable is unset —
/// callers keep their own defaults. Construction fails loudly on the
/// first malformed value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuntimeConfig {
    /// `ST_PUBLISH_THRESHOLD`: frontier publication threshold
    /// (`usize::MAX` for `max`).
    pub publish_threshold: Option<usize>,
    /// `ST_PUBLISH_ON_SLEEPERS`: sleeper-driven publication toggle.
    pub publish_on_sleepers: Option<bool>,
    /// `ST_LOCAL_BATCH`: owner dequeue batch size.
    pub local_batch: Option<usize>,
    /// `ST_DIRECTION`: traversal direction strategy.
    pub direction: Option<Direction>,
    /// `ST_HYBRID_ALPHA`: hybrid switch-forward weight.
    pub hybrid_alpha: Option<f64>,
    /// `ST_HYBRID_BETA`: hybrid switch-back weight.
    pub hybrid_beta: Option<f64>,
    /// `ST_PREFETCH_DISTANCE`: software-prefetch lookahead (0 disables).
    pub prefetch_distance: Option<usize>,
    /// `ST_HUGEPAGES`: transparent-hugepage advice for the CSR and
    /// workspace arrays.
    pub hugepages: Option<bool>,
    /// `ST_BENCH_SCALE`: default log2 problem size of the bench bins.
    pub bench_scale: Option<u32>,
    /// `ST_SERVICE_TEAMS`: job-service team widths.
    pub service_teams: Option<Vec<usize>>,
    /// `ST_SERVICE_QUEUE_CAP`: job-service admission queue capacity.
    pub service_queue_capacity: Option<usize>,
    /// `ST_LISTEN_ADDR`: TCP bind address of the service front-end.
    pub listen_addr: Option<std::net::SocketAddr>,
    /// `ST_MAX_CONNECTIONS`: concurrent TCP connections the front-end
    /// accepts before answering `Busy`.
    pub max_connections: Option<usize>,
    /// `ST_RESULT_CACHE_CAP`: result-cache entry capacity (0 disables
    /// the cache).
    pub result_cache_capacity: Option<usize>,
    /// `ST_JOURNAL_CAP`: telemetry event-journal ring capacity.
    pub journal_capacity: Option<usize>,
    /// `ST_SLOW_JOB_MS`: wall-latency threshold, in milliseconds, past
    /// which the service dumps a job's full `JobMetrics`.
    pub slow_job_ms: Option<u64>,
    /// `ST_LANE_WEIGHTS`: deficit-round-robin credits granted per
    /// scheduling round to the High/Normal/Low admission lanes.
    pub lane_weights: Option<[u32; 3]>,
    /// `ST_TENANT_QUOTA`: maximum queued jobs per tenant id.
    pub tenant_quota: Option<usize>,
    /// `ST_ELASTIC`: whether the service runs the elastic pool
    /// controller.
    pub elastic: Option<bool>,
    /// `ST_ELASTIC_IDLE_MS`: how long a team must sit idle before the
    /// controller shrinks it.
    pub elastic_idle_ms: Option<u64>,
    /// `ST_ELASTIC_BACKLOG`: admission-queue depth the controller
    /// treats as sustained backlog (triggers growth).
    pub elastic_backlog: Option<usize>,
    /// `ST_ELASTIC_MAX_WIDTH`: the widest the controller may grow any
    /// team.
    pub elastic_max_width: Option<usize>,
    /// `ST_DELTA_REBUILD_FRACTION`: patched-row fraction past which the
    /// catalog flattens a COW delta into a fresh CSR.
    pub delta_rebuild_fraction: Option<f64>,
    /// `ST_DYN_RECOMPUTE_FRACTION`: repair-work budget of a batch
    /// update as a fraction of n + m; a repair that would do more work
    /// falls back to full recompute (0 forces recompute on every
    /// batch; above 1 never recomputes).
    pub dyn_recompute_fraction: Option<f64>,
}

impl RuntimeConfig {
    /// Reads and validates every `ST_*` knob from the process
    /// environment.
    pub fn from_env() -> Result<Self, ConfigError> {
        Ok(Self {
            publish_threshold: read("ST_PUBLISH_THRESHOLD", parse_threshold)?,
            publish_on_sleepers: read("ST_PUBLISH_ON_SLEEPERS", parse_bool)?,
            local_batch: read("ST_LOCAL_BATCH", parse_positive)?,
            direction: read("ST_DIRECTION", parse_direction)?,
            hybrid_alpha: read("ST_HYBRID_ALPHA", parse_alpha)?,
            hybrid_beta: read("ST_HYBRID_BETA", parse_beta)?,
            prefetch_distance: read("ST_PREFETCH_DISTANCE", parse_prefetch)?,
            hugepages: read("ST_HUGEPAGES", parse_bool)?,
            bench_scale: read("ST_BENCH_SCALE", parse_scale)?,
            service_teams: read("ST_SERVICE_TEAMS", parse_team_list)?,
            service_queue_capacity: read("ST_SERVICE_QUEUE_CAP", parse_positive)?,
            listen_addr: read("ST_LISTEN_ADDR", parse_socket_addr)?,
            max_connections: read("ST_MAX_CONNECTIONS", parse_positive)?,
            result_cache_capacity: read("ST_RESULT_CACHE_CAP", parse_nonnegative)?,
            journal_capacity: read("ST_JOURNAL_CAP", parse_journal_cap)?,
            slow_job_ms: read("ST_SLOW_JOB_MS", parse_slow_job_ms)?,
            lane_weights: read("ST_LANE_WEIGHTS", parse_lane_weights)?,
            tenant_quota: read("ST_TENANT_QUOTA", parse_positive)?,
            elastic: read("ST_ELASTIC", parse_bool)?,
            elastic_idle_ms: read("ST_ELASTIC_IDLE_MS", parse_bounded_ms)?,
            elastic_backlog: read("ST_ELASTIC_BACKLOG", parse_positive)?,
            elastic_max_width: read("ST_ELASTIC_MAX_WIDTH", parse_team_width)?,
            delta_rebuild_fraction: read("ST_DELTA_REBUILD_FRACTION", parse_unit_fraction)?,
            dyn_recompute_fraction: read("ST_DYN_RECOMPUTE_FRACTION", parse_fraction)?,
        })
    }

    /// Overlays the frontier knobs onto a traversal configuration
    /// (fields left unset keep `cfg`'s current values).
    pub fn apply_frontier(&self, cfg: &mut crate::traversal::TraversalConfig) {
        if let Some(t) = self.publish_threshold {
            cfg.publish_threshold = t;
        }
        if let Some(s) = self.publish_on_sleepers {
            cfg.publish_on_sleepers = s;
        }
        if let Some(b) = self.local_batch {
            cfg.local_batch = b;
        }
        if let Some(d) = self.direction {
            cfg.direction = d;
        }
        if let Some(a) = self.hybrid_alpha {
            cfg.alpha = a;
        }
        if let Some(b) = self.hybrid_beta {
            cfg.beta = b;
        }
        if let Some(d) = self.prefetch_distance {
            cfg.prefetch_distance = d;
        }
    }
}

fn read<T>(
    var: &'static str,
    parse: fn(&str) -> Result<T, &'static str>,
) -> Result<Option<T>, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => parse(raw.trim()).map(Some).map_err(|reason| ConfigError {
            var,
            value: raw,
            reason,
        }),
    }
}

fn parse_threshold(s: &str) -> Result<usize, &'static str> {
    if s.eq_ignore_ascii_case("max") {
        return Ok(usize::MAX);
    }
    parse_positive(s).map_err(|_| "an integer ≥ 1 or `max`")
}

fn parse_positive(s: &str) -> Result<usize, &'static str> {
    match s.parse::<usize>() {
        Ok(0) | Err(_) => Err("an integer ≥ 1"),
        Ok(v) => Ok(v),
    }
}

fn parse_nonnegative(s: &str) -> Result<usize, &'static str> {
    s.parse::<usize>().map_err(|_| "an integer ≥ 0")
}

fn parse_socket_addr(s: &str) -> Result<std::net::SocketAddr, &'static str> {
    s.parse()
        .map_err(|_| "a socket address like `127.0.0.1:7077` or `[::1]:7077`")
}

fn parse_scale(s: &str) -> Result<u32, &'static str> {
    s.parse::<u32>().map_err(|_| "an integer (log2 of n)")
}

fn parse_bool(s: &str) -> Result<bool, &'static str> {
    match s.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        _ => Err("a boolean (1/0, true/false, on/off, yes/no)"),
    }
}

fn parse_direction(s: &str) -> Result<Direction, &'static str> {
    match s.to_ascii_lowercase().as_str() {
        "top-down" | "topdown" | "td" => Ok(Direction::TopDown),
        "bottom-up" | "bottomup" | "bu" => Ok(Direction::BottomUp),
        "hybrid" => Ok(Direction::Hybrid),
        _ => Err("one of `top-down`, `bottom-up`, `hybrid`"),
    }
}

fn parse_alpha(s: &str) -> Result<f64, &'static str> {
    const REASON: &str = "a finite float > 0";
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_beta(s: &str) -> Result<f64, &'static str> {
    // β < 1 would demand a frontier larger than the graph before ever
    // switching forward, and a switch-back threshold above n: the knob
    // would silently disable the hybrid while looking configured.
    const REASON: &str = "a finite float ≥ 1";
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 1.0 => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_prefetch(s: &str) -> Result<usize, &'static str> {
    // 256 entries is already far beyond any useful lookahead; larger
    // values are a typo (e.g. a threshold pasted into the wrong var).
    const REASON: &str = "an integer between 0 (off) and 256";
    match s.parse::<usize>() {
        Ok(v) if v <= 256 => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_journal_cap(s: &str) -> Result<usize, &'static str> {
    // A zero cap silently discards every event; a multi-million-entry
    // ring is a unit mix-up (each entry is ~100 bytes). Either way the
    // operator meant something else.
    const REASON: &str = "an integer between 1 and 1048576 (journal entries)";
    match s.parse::<usize>() {
        Ok(v) if (1..=1_048_576).contains(&v) => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_slow_job_ms(s: &str) -> Result<u64, &'static str> {
    // 0 would dump metrics for every job (that is what the journal is
    // for); beyond an hour the knob can never fire before a deadline
    // or the operator's patience does — both are configuration typos.
    const REASON: &str = "an integer between 1 and 3600000 (milliseconds)";
    match s.parse::<u64>() {
        Ok(v) if (1..=3_600_000).contains(&v) => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_lane_weights(s: &str) -> Result<[u32; 3], &'static str> {
    // The admission queue has exactly three lanes; a zero weight would
    // starve its lane outright, which is what the scheduler exists to
    // prevent.
    const REASON: &str = "exactly three comma-separated weights ≥ 1, e.g. `4,2,1`";
    let parts: Vec<u32> = s
        .split(',')
        .map(|part| match part.trim().parse::<u32>() {
            Ok(0) | Err(_) => Err(REASON),
            Ok(v) => Ok(v),
        })
        .collect::<Result<_, _>>()?;
    <[u32; 3]>::try_from(parts).map_err(|_| REASON)
}

fn parse_bounded_ms(s: &str) -> Result<u64, &'static str> {
    // Same bounds rationale as the slow-job threshold: 0 would fire
    // continuously, beyond an hour is a unit mix-up.
    const REASON: &str = "an integer between 1 and 3600000 (milliseconds)";
    match s.parse::<u64>() {
        Ok(v) if (1..=3_600_000).contains(&v) => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_team_width(s: &str) -> Result<usize, &'static str> {
    // 512 processors in one team is already far past any SMP this
    // targets; larger values are a pasted queue capacity.
    const REASON: &str = "an integer between 1 and 512 (processors per team)";
    match s.parse::<usize>() {
        Ok(v) if (1..=512).contains(&v) => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_unit_fraction(s: &str) -> Result<f64, &'static str> {
    // The patched-row fraction is a proportion; anything past 1 can
    // never trigger, which silently disables flattening.
    const REASON: &str = "a finite float between 0 and 1";
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && (0.0..=1.0).contains(&v) => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_fraction(s: &str) -> Result<f64, &'static str> {
    // Unlike the rebuild knob, values above 1 are deliberate here: a
    // touched-fraction threshold > 1 means "never recompute", which the
    // bench uses to isolate the incremental path.
    const REASON: &str = "a finite float ≥ 0";
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(REASON),
    }
}

fn parse_team_list(s: &str) -> Result<Vec<usize>, &'static str> {
    const REASON: &str = "a comma-separated list of team widths ≥ 1, e.g. `4,2,2`";
    let teams: Vec<usize> = s
        .split(',')
        .map(|part| parse_positive(part.trim()).map_err(|_| REASON))
        .collect::<Result<_, _>>()?;
    if teams.is_empty() {
        return Err(REASON);
    }
    Ok(teams)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The parsers are tested directly (not through the process
    // environment) so the suite stays safe under parallel test
    // execution — `std::env::set_var` is unsound with threads.

    #[test]
    fn threshold_accepts_max_and_integers() {
        assert_eq!(parse_threshold("max"), Ok(usize::MAX));
        assert_eq!(parse_threshold("MAX"), Ok(usize::MAX));
        assert_eq!(parse_threshold("64"), Ok(64));
        assert!(parse_threshold("0").is_err());
        assert!(parse_threshold("-3").is_err());
        assert!(parse_threshold("sixty").is_err());
    }

    #[test]
    fn bools_accept_common_spellings() {
        for s in ["1", "true", "ON", "yes"] {
            assert_eq!(parse_bool(s), Ok(true), "{s}");
        }
        for s in ["0", "false", "off", "NO"] {
            assert_eq!(parse_bool(s), Ok(false), "{s}");
        }
        assert!(parse_bool("maybe").is_err());
    }

    #[test]
    fn team_lists_parse_and_validate() {
        assert_eq!(parse_team_list("4,2,2"), Ok(vec![4, 2, 2]));
        assert_eq!(parse_team_list(" 8 , 1 "), Ok(vec![8, 1]));
        assert!(parse_team_list("4,0,2").is_err());
        assert!(parse_team_list("").is_err());
        assert!(parse_team_list("a,b").is_err());
    }

    #[test]
    fn direction_accepts_all_spellings() {
        for s in ["top-down", "TopDown", "td"] {
            assert_eq!(parse_direction(s), Ok(Direction::TopDown), "{s}");
        }
        for s in ["bottom-up", "bottomup", "BU"] {
            assert_eq!(parse_direction(s), Ok(Direction::BottomUp), "{s}");
        }
        assert_eq!(parse_direction("hybrid"), Ok(Direction::Hybrid));
        assert!(parse_direction("sideways").is_err());
    }

    #[test]
    fn alpha_requires_positive_finite() {
        assert_eq!(parse_alpha("14"), Ok(14.0));
        assert_eq!(parse_alpha("0.5"), Ok(0.5));
        assert!(parse_alpha("0").is_err());
        assert!(parse_alpha("-2").is_err());
        assert!(parse_alpha("inf").is_err());
        assert!(parse_alpha("NaN").is_err());
        assert!(parse_alpha("fast").is_err());
    }

    #[test]
    fn beta_requires_at_least_one() {
        assert_eq!(parse_beta("24"), Ok(24.0));
        assert_eq!(parse_beta("1"), Ok(1.0));
        assert!(parse_beta("0.5").is_err());
        assert!(parse_beta("-1").is_err());
        assert!(parse_beta("inf").is_err());
    }

    #[test]
    fn prefetch_distance_is_bounded() {
        assert_eq!(parse_prefetch("0"), Ok(0));
        assert_eq!(parse_prefetch("1"), Ok(1));
        assert_eq!(parse_prefetch("256"), Ok(256));
        assert!(parse_prefetch("257").is_err());
        assert!(parse_prefetch("-1").is_err());
        assert!(parse_prefetch("near").is_err());
    }

    #[test]
    fn hybrid_knobs_overlay_traversal_config() {
        use crate::traversal::TraversalConfig;
        let cfg = RuntimeConfig {
            direction: Some(Direction::Hybrid),
            hybrid_alpha: Some(7.5),
            hybrid_beta: Some(12.0),
            prefetch_distance: Some(0),
            ..RuntimeConfig::default()
        };
        let mut t = TraversalConfig::paper_protocol();
        cfg.apply_frontier(&mut t);
        assert_eq!(t.direction, Direction::Hybrid);
        assert_eq!(t.alpha, 7.5);
        assert_eq!(t.beta, 12.0);
        assert_eq!(t.prefetch_distance, 0);
    }

    #[test]
    fn listen_addr_requires_a_socket_address() {
        assert_eq!(
            parse_socket_addr("127.0.0.1:7077"),
            Ok("127.0.0.1:7077".parse().unwrap())
        );
        assert_eq!(
            parse_socket_addr("[::1]:9000"),
            Ok("[::1]:9000".parse().unwrap())
        );
        assert!(parse_socket_addr("localhost:7077").is_err(), "no DNS here");
        assert!(parse_socket_addr("127.0.0.1").is_err(), "port required");
        assert!(parse_socket_addr("").is_err());
    }

    #[test]
    fn cache_capacity_accepts_zero() {
        assert_eq!(parse_nonnegative("0"), Ok(0), "0 disables the cache");
        assert_eq!(parse_nonnegative("4096"), Ok(4096));
        assert!(parse_nonnegative("-1").is_err());
        assert!(parse_nonnegative("lots").is_err());
    }

    #[test]
    fn journal_cap_rejects_zero_and_absurd_values() {
        assert_eq!(parse_journal_cap("1"), Ok(1));
        assert_eq!(parse_journal_cap("4096"), Ok(4096));
        assert_eq!(parse_journal_cap("1048576"), Ok(1_048_576));
        assert!(parse_journal_cap("0").is_err(), "0 discards every event");
        assert!(parse_journal_cap("1048577").is_err(), "unit mix-up");
        assert!(parse_journal_cap("-5").is_err());
        assert!(parse_journal_cap("big").is_err());
    }

    #[test]
    fn slow_job_threshold_rejects_zero_and_absurd_values() {
        assert_eq!(parse_slow_job_ms("1"), Ok(1));
        assert_eq!(parse_slow_job_ms("250"), Ok(250));
        assert_eq!(parse_slow_job_ms("3600000"), Ok(3_600_000));
        assert!(parse_slow_job_ms("0").is_err(), "0 dumps every job");
        assert!(parse_slow_job_ms("3600001").is_err(), "beyond an hour");
        assert!(parse_slow_job_ms("-1").is_err());
        assert!(parse_slow_job_ms("slow").is_err());
    }

    #[test]
    fn lane_weights_require_exactly_three_positive_entries() {
        assert_eq!(parse_lane_weights("4,2,1"), Ok([4, 2, 1]));
        assert_eq!(parse_lane_weights(" 10 , 1 , 1 "), Ok([10, 1, 1]));
        assert!(parse_lane_weights("4,2").is_err(), "three lanes, not two");
        assert!(parse_lane_weights("4,2,1,1").is_err());
        assert!(parse_lane_weights("4,0,1").is_err(), "zero starves a lane");
        assert!(parse_lane_weights("").is_err());
        assert!(parse_lane_weights("a,b,c").is_err());
    }

    #[test]
    fn elastic_windows_and_widths_are_bounded() {
        assert_eq!(parse_bounded_ms("250"), Ok(250));
        assert!(parse_bounded_ms("0").is_err(), "would fire continuously");
        assert!(parse_bounded_ms("3600001").is_err(), "unit mix-up");
        assert_eq!(parse_team_width("1"), Ok(1));
        assert_eq!(parse_team_width("512"), Ok(512));
        assert!(parse_team_width("0").is_err());
        assert!(parse_team_width("513").is_err());
        assert!(parse_team_width("wide").is_err());
    }

    #[test]
    fn dynamic_fractions_are_validated() {
        assert_eq!(parse_unit_fraction("0"), Ok(0.0));
        assert_eq!(parse_unit_fraction("0.25"), Ok(0.25));
        assert_eq!(parse_unit_fraction("1"), Ok(1.0));
        assert!(parse_unit_fraction("1.5").is_err(), "can never trigger");
        assert!(parse_unit_fraction("-0.1").is_err());
        assert!(parse_unit_fraction("inf").is_err());
        assert_eq!(parse_fraction("0"), Ok(0.0), "0 forces recompute");
        assert_eq!(parse_fraction("0.1"), Ok(0.1));
        assert_eq!(parse_fraction("2"), Ok(2.0), "> 1 never recomputes");
        assert!(parse_fraction("-1").is_err());
        assert!(parse_fraction("NaN").is_err());
        assert!(parse_fraction("half").is_err());
    }

    #[test]
    fn scale_rejects_garbage() {
        assert_eq!(parse_scale("20"), Ok(20));
        assert!(parse_scale("abc").is_err(), "was the silent-13 fallback");
        assert!(parse_scale("-1").is_err());
    }

    #[test]
    fn error_display_names_the_variable() {
        let e = ConfigError {
            var: "ST_BENCH_SCALE",
            value: "abc".into(),
            reason: "an integer (log2 of n)",
        };
        let msg = e.to_string();
        assert!(msg.contains("ST_BENCH_SCALE"));
        assert!(msg.contains("abc"));
        assert!(msg.contains("log2"));
    }

    #[test]
    fn unset_environment_is_all_none() {
        // The ST_* variables are not set in the test environment (the
        // CI stress job sets ST_PUBLISH_THRESHOLD; tolerate that one).
        let cfg = RuntimeConfig::from_env().expect("clean env parses");
        assert_eq!(cfg.bench_scale, None);
        assert_eq!(cfg.service_teams, None);
    }
}
