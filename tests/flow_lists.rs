//! Known answers for compiled flow lists: an FNV-1a checksum of every
//! field of every flow `compile` emits, for the benchmark's reference
//! scenarios and one committed multi-group scenario. A change to the
//! generator or to lowering that moves a single flow fails here, at the
//! flow list, rather than at a run fingerprint further downstream.

use std::path::Path;

use elephant::net::FlowSpec;
use elephant::scenario::{compile, load, CompileOverrides};

/// FNV-1a 64 over each flow's id, endpoints, size and start, in list order.
fn checksum(flows: &[FlowSpec]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in flows {
        write(f.id.0);
        for a in [f.src, f.dst] {
            write(u64::from(a.cluster) << 32 | u64::from(a.rack) << 16 | u64::from(a.host));
        }
        write(f.bytes);
        write(f.start.as_nanos());
    }
    h
}

#[test]
fn compiled_flow_lists_repeat_their_known_answers() {
    // (scenario file, `repeat` override, flow count, checksum)
    let pinned: [(&str, Option<u32>, usize, u64); 4] = [
        (
            "benchmark/scenarios/full_rpc8.toml",
            None,
            39_958,
            0xbbaf_1d8a_4239_00a1,
        ),
        (
            "benchmark/scenarios/full_websearch8.toml",
            None,
            919,
            0x97e3_903d_4ec3_f2b1,
        ),
        (
            "benchmark/scenarios/pdes_bursty2.toml",
            Some(8),
            7384,
            0x8fa5_7758_101f_c62a,
        ),
        // Two Poisson groups: the second lowers into its own id block.
        (
            "scenarios/websearch_storage.toml",
            None,
            498,
            0xc9b1_6522_148d_6dfe,
        ),
    ];
    for (file, repeat, len, sum) in pinned {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        let s = load(&path.display().to_string()).unwrap_or_else(|e| panic!("{file}: {e}"));
        let overrides = CompileOverrides {
            repeat,
            ..Default::default()
        };
        let flows = compile(&s, &overrides).flows;
        assert_eq!(flows.len(), len, "{file}: flow count");
        assert_eq!(checksum(&flows), sum, "{file}: flow list checksum");
    }
}
