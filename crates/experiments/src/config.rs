//! Named cache configurations used across the figures.

use sac_core::{AssistCache, SoftCache, SoftCacheConfig};
use sac_obs::Probe;
use sac_simcache::{
    BypassCache, BypassMode, CacheGeometry, CacheSim, ColumnAssociativeCache, MemoryModel, Metrics,
    NextLinePrefetchCache, StandardCache, StreamBufferCache, VictimCache,
};
use sac_trace::Trace;
use std::fmt;

/// One cache organization to evaluate.
///
/// `Config` is a cheap, copyable description; [`Config::run`] builds the
/// engine and drives a trace through it.
///
/// ```
/// use sac_experiments::Config;
/// use sac_trace::{Access, Trace};
///
/// let trace: Trace = (0..64u64).map(|i| Access::read(i * 8)).collect();
/// let m = Config::standard().run(&trace);
/// assert_eq!(m.refs, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Config {
    /// A plain cache ([`StandardCache`]).
    Standard {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
    },
    /// Main cache plus victim cache ([`VictimCache`]).
    Victim {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Victim-cache size in lines.
        lines: u32,
    },
    /// Tag-driven bypassing ([`BypassCache`]).
    Bypass {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Plain or through a line buffer.
        mode: BypassMode,
    },
    /// Hardware next-line prefetching ([`NextLinePrefetchCache`]).
    HwPrefetch {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Prefetch-buffer size in lines.
        lines: u32,
    },
    /// Jouppi stream buffers ([`StreamBufferCache`], §5 related work).
    StreamBuffer {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Number of stream buffers.
        buffers: u32,
        /// Entries per buffer.
        depth: u32,
    },
    /// The column-associative cache ([`ColumnAssociativeCache`], §5).
    ColumnAssoc {
        /// Main-cache geometry (direct-mapped).
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
    },
    /// An HP-7200-style assist cache ([`AssistCache`], §5).
    Assist {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Assist-cache size in lines.
        lines: u32,
    },
    /// The software-assisted cache ([`SoftCache`]).
    Soft(SoftCacheConfig),
}

impl Config {
    /// The paper's Standard baseline (8 KB / 32 B / 1-way, 20-cycle
    /// latency, 16-byte bus).
    pub fn standard() -> Self {
        Config::Standard {
            geom: CacheGeometry::standard(),
            mem: MemoryModel::default(),
        }
    }

    /// Standard plus an 8-line victim cache (Figure 3b).
    pub fn standard_victim() -> Self {
        Config::Victim {
            geom: CacheGeometry::standard(),
            mem: MemoryModel::default(),
            lines: 8,
        }
    }

    /// The full software-assisted mechanism.
    pub fn soft() -> Self {
        Config::Soft(SoftCacheConfig::soft())
    }

    /// One representative of every cache organization, all on the
    /// standard geometry — the widest batch, used by the `--diff` pass,
    /// the trace-file benchmark and the equivalence and reconciliation
    /// tests.
    pub fn all_organizations() -> [(&'static str, Config); 8] {
        let geom = CacheGeometry::standard();
        let mem = MemoryModel::default();
        [
            ("standard", Config::standard()),
            ("victim", Config::standard_victim()),
            (
                "bypass",
                Config::Bypass {
                    geom,
                    mem,
                    mode: BypassMode::Buffered { lines: 4 },
                },
            ),
            (
                "prefetch",
                Config::HwPrefetch {
                    geom,
                    mem,
                    lines: 8,
                },
            ),
            (
                "stream",
                Config::StreamBuffer {
                    geom,
                    mem,
                    buffers: 4,
                    depth: 4,
                },
            ),
            ("colassoc", Config::ColumnAssoc { geom, mem }),
            (
                "assist",
                Config::Assist {
                    geom,
                    mem,
                    lines: 16,
                },
            ),
            ("soft", Config::soft()),
        ]
    }

    /// Resolves a CLI configuration name (the `--config`/`--diff`
    /// vocabulary of the `explain` binary) to its standard-geometry
    /// configuration. `None` for unknown names; [`Config::CLI_NAMES`]
    /// lists the accepted ones.
    pub fn by_name(name: &str) -> Option<Config> {
        let geom = CacheGeometry::standard();
        let mem = MemoryModel::default();
        Some(match name {
            "standard" => Config::standard(),
            "victim" => Config::standard_victim(),
            "bypass" => Config::Bypass {
                geom,
                mem,
                mode: BypassMode::Buffered { lines: 4 },
            },
            "prefetch" => Config::HwPrefetch {
                geom,
                mem,
                lines: 8,
            },
            "stream" => Config::StreamBuffer {
                geom,
                mem,
                buffers: 4,
                depth: 4,
            },
            "colassoc" => Config::ColumnAssoc { geom, mem },
            "assist" => Config::Assist {
                geom,
                mem,
                lines: 16,
            },
            "soft" => Config::soft(),
            "soft-prefetch" => match Config::soft() {
                Config::Soft(mut c) => {
                    c.prefetch = true;
                    Config::Soft(c)
                }
                _ => unreachable!(),
            },
            _ => return None,
        })
    }

    /// The names [`Config::by_name`] accepts, for usage messages.
    pub const CLI_NAMES: &'static str =
        "standard | victim | bypass | prefetch | stream | colassoc | assist | soft | soft-prefetch";

    /// The main-cache geometry and memory model of this configuration —
    /// the shape a baseline or an observer config is derived from.
    pub fn shape(&self) -> (CacheGeometry, MemoryModel) {
        match *self {
            Config::Standard { geom, mem }
            | Config::Victim { geom, mem, .. }
            | Config::Bypass { geom, mem, .. }
            | Config::HwPrefetch { geom, mem, .. }
            | Config::StreamBuffer { geom, mem, .. }
            | Config::ColumnAssoc { geom, mem }
            | Config::Assist { geom, mem, .. } => (geom, mem),
            Config::Soft(cfg) => (cfg.geometry, cfg.memory),
        }
    }

    /// Builds the configured engine, ready to replay a trace. The boxed
    /// engine is what a replay batch drives chunk by chunk; the virtual
    /// dispatch happens once per chunk ([`CacheSim::run_chunk`]), not per
    /// reference. The box is `Send` so a batch can shard its engines
    /// across intra-cell worker threads.
    pub fn build(&self) -> Box<dyn CacheSim + Send> {
        match *self {
            Config::Standard { geom, mem } => Box::new(StandardCache::new(geom, mem)),
            Config::Victim { geom, mem, lines } => Box::new(VictimCache::new(geom, mem, lines)),
            Config::Bypass { geom, mem, mode } => Box::new(BypassCache::new(geom, mem, mode)),
            Config::HwPrefetch { geom, mem, lines } => {
                Box::new(NextLinePrefetchCache::new(geom, mem, lines))
            }
            Config::StreamBuffer {
                geom,
                mem,
                buffers,
                depth,
            } => Box::new(StreamBufferCache::new(geom, mem, buffers, depth)),
            Config::ColumnAssoc { geom, mem } => Box::new(ColumnAssociativeCache::new(geom, mem)),
            Config::Assist { geom, mem, lines } => Box::new(AssistCache::new(geom, mem, lines)),
            Config::Soft(cfg) => Box::new(SoftCache::new(cfg)),
        }
    }

    /// Builds the configured engine with an observer probe attached.
    /// Every organization runs on the shared policy engine, so any
    /// [`Probe`] composes with any configuration; the probed engine
    /// replays exactly like its unprobed twin (same chunked fast path,
    /// same metrics).
    pub fn build_probed<P: Probe + 'static>(&self, probe: P) -> Box<dyn CacheSim> {
        match *self {
            Config::Standard { geom, mem } => Box::new(StandardCache::with_probe(geom, mem, probe)),
            Config::Victim { geom, mem, lines } => {
                Box::new(VictimCache::with_probe(geom, mem, lines, probe))
            }
            Config::Bypass { geom, mem, mode } => {
                Box::new(BypassCache::with_probe(geom, mem, mode, probe))
            }
            Config::HwPrefetch { geom, mem, lines } => {
                Box::new(NextLinePrefetchCache::with_probe(geom, mem, lines, probe))
            }
            Config::StreamBuffer {
                geom,
                mem,
                buffers,
                depth,
            } => Box::new(StreamBufferCache::with_probe(
                geom, mem, buffers, depth, probe,
            )),
            Config::ColumnAssoc { geom, mem } => {
                Box::new(ColumnAssociativeCache::with_probe(geom, mem, probe))
            }
            Config::Assist { geom, mem, lines } => {
                Box::new(AssistCache::with_probe(geom, mem, lines, probe))
            }
            Config::Soft(cfg) => Box::new(SoftCache::with_probe(cfg, probe)),
        }
    }

    /// Builds the engine and runs the whole trace.
    pub fn run(&self, trace: &Trace) -> Metrics {
        let mut c = self.build();
        c.run(trace);
        *c.metrics()
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Config::Standard { geom, .. } => write!(f, "standard {geom}"),
            Config::Victim { geom, lines, .. } => write!(f, "victim({lines}) {geom}"),
            Config::Bypass { geom, mode, .. } => write!(f, "bypass({mode:?}) {geom}"),
            Config::HwPrefetch { geom, lines, .. } => write!(f, "prefetch({lines}) {geom}"),
            Config::StreamBuffer { buffers, depth, .. } => {
                write!(f, "stream-buffers({buffers}x{depth})")
            }
            Config::ColumnAssoc { geom, .. } => write!(f, "column-assoc {geom}"),
            Config::Assist { lines, .. } => write!(f, "assist({lines})"),
            Config::Soft(cfg) => write!(f, "soft {cfg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_trace::Access;

    fn trace() -> Trace {
        (0..256u64)
            .map(|i| Access::read((i % 64) * 8).with_temporal(true))
            .collect()
    }

    #[test]
    fn every_variant_runs() {
        let t = trace();
        let configs = [
            Config::standard(),
            Config::standard_victim(),
            Config::Bypass {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                mode: BypassMode::Plain,
            },
            Config::HwPrefetch {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                lines: 8,
            },
            Config::StreamBuffer {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                buffers: 4,
                depth: 4,
            },
            Config::ColumnAssoc {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
            },
            Config::Assist {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                lines: 16,
            },
            Config::soft(),
        ];
        for c in configs {
            let m = c.run(&t);
            assert_eq!(m.refs, 256, "{c}");
            assert!(m.amat() >= 1.0, "{c}");
        }
    }

    #[test]
    fn probed_build_matches_unprobed() {
        use sac_obs::CountingProbe;
        let t = trace();
        for c in [
            Config::standard(),
            Config::standard_victim(),
            Config::soft(),
        ] {
            let (geom, _) = c.shape();
            assert_eq!(geom, CacheGeometry::standard(), "{c}");
            let mut probed = c.build_probed(CountingProbe::default());
            probed.run(&t);
            assert_eq!(*probed.metrics(), c.run(&t), "{c}");
        }
    }

    #[test]
    fn by_name_covers_every_organization() {
        for (name, config) in Config::all_organizations() {
            assert_eq!(Config::by_name(name), Some(config), "{name}");
            assert!(Config::CLI_NAMES.contains(name), "{name}");
        }
        assert!(matches!(
            Config::by_name("soft-prefetch"),
            Some(Config::Soft(c)) if c.prefetch
        ));
        assert_eq!(Config::by_name("nope"), None);
    }

    #[test]
    fn run_is_deterministic() {
        let t = trace();
        let a = Config::soft().run(&t);
        let b = Config::soft().run(&t);
        assert_eq!(a, b);
    }
}
