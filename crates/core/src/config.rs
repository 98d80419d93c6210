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
//!   environment should stop the run, not skew it), and the engine
//!   reads [`hugepages`](RuntimeConfig::hugepages);
//! * the Criterion benches read
//!   [`bench_scale`](RuntimeConfig::bench_scale);
//! * the `st-service` builder seeds its core budget from
//!   [`service_cores`](RuntimeConfig::service_cores), and the TCP
//!   front-end's `ServerConfig::from_env` reads the listen address and
//!   connection cap.
//!
//! | variable | type | meaning |
//! |---|---|---|
//! | `ST_PUBLISH_THRESHOLD` | integer ≥ 1 or `max` | private-buffer size that triggers publication |
//! | `ST_DIRECTION` | `top-down` / `bottom-up` / `hybrid` | traversal direction strategy |
//! | `ST_HUGEPAGES` | bool | back CSR/workspace arrays with transparent huge pages |
//! | `ST_BENCH_SCALE` | integer (log2 n) | default problem scale of the Criterion benches |
//! | `ST_SERVICE_CORES` | integer ≥ 1 | service core budget: the executor ladder's widest width and the dispatcher count |
//! | `ST_LISTEN_ADDR` | `host:port` socket address | TCP bind address of the service front-end |
//! | `ST_MAX_CONNECTIONS` | integer ≥ 1 | concurrent TCP connections before `Busy` |
//!
//! Every other setting is a [`TraversalConfig`](crate::traversal::TraversalConfig)
//! field, a `ServiceBuilder` method, or a constant.

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
    /// `ST_DIRECTION`: traversal direction strategy.
    pub direction: Option<Direction>,
    /// `ST_HUGEPAGES`: transparent-hugepage advice for the CSR and
    /// workspace arrays.
    pub hugepages: Option<bool>,
    /// `ST_BENCH_SCALE`: default log2 problem size of the Criterion
    /// benches.
    pub bench_scale: Option<u32>,
    /// `ST_SERVICE_CORES`: the job service's core budget.
    pub service_cores: Option<usize>,
    /// `ST_LISTEN_ADDR`: TCP bind address of the service front-end.
    pub listen_addr: Option<std::net::SocketAddr>,
    /// `ST_MAX_CONNECTIONS`: concurrent TCP connections the front-end
    /// accepts before answering `Busy`.
    pub max_connections: Option<usize>,
}

impl RuntimeConfig {
    /// Reads and validates every `ST_*` knob from the process
    /// environment.
    pub fn from_env() -> Result<Self, ConfigError> {
        Ok(Self {
            publish_threshold: read("ST_PUBLISH_THRESHOLD", parse_threshold)?,
            direction: read("ST_DIRECTION", parse_direction)?,
            hugepages: read("ST_HUGEPAGES", parse_bool)?,
            bench_scale: read("ST_BENCH_SCALE", parse_scale)?,
            service_cores: read("ST_SERVICE_CORES", parse_positive)?,
            listen_addr: read("ST_LISTEN_ADDR", parse_socket_addr)?,
            max_connections: read("ST_MAX_CONNECTIONS", parse_positive)?,
        })
    }

    /// Overlays the frontier knobs onto a traversal configuration
    /// (fields left unset keep `cfg`'s current values).
    pub fn apply_frontier(&self, cfg: &mut crate::traversal::TraversalConfig) {
        if let Some(t) = self.publish_threshold {
            cfg.publish_threshold = t;
        }
        if let Some(d) = self.direction {
            cfg.direction = d;
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
    fn core_budgets_parse_and_validate() {
        assert_eq!(parse_positive("2"), Ok(2));
        assert_eq!(parse_positive("64"), Ok(64));
        assert!(parse_positive("0").is_err());
        assert!(parse_positive("4,2,2").is_err(), "no longer a team list");
        assert!(parse_positive("").is_err());
        assert!(parse_positive("two").is_err());
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
    fn hybrid_knobs_overlay_traversal_config() {
        use crate::traversal::TraversalConfig;
        let cfg = RuntimeConfig {
            direction: Some(Direction::Hybrid),
            ..RuntimeConfig::default()
        };
        let mut t = TraversalConfig::paper_protocol();
        cfg.apply_frontier(&mut t);
        assert_eq!(t.direction, Direction::Hybrid);
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
        assert_eq!(cfg.service_cores, None);
    }
}
