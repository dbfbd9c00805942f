//! Kill/resume torture for the explorer's append-only result store, in the
//! style of the `checkpoint_fuzz.rs` battery: truncate the file at offsets
//! sampled across the whole range (including every frame boundary ±1) and
//! flip single bytes at arbitrary offsets, then `resume`. The contract:
//!
//! * every intact record is recovered bit-identically (never re-run),
//! * the damaged remainder is re-executed, so the resumed grid always
//!   completes with balanced accounting,
//! * a corrupt row is **never** resurrected — any record the scanner accepts
//!   must match the uncorrupted golden run exactly,
//! * a store written for a *different* grid digest fails typed, never mixes.

use std::path::PathBuf;

use harvsim::{
    CheckpointError, CoreError, ExploreReport, Explorer, GridSpec, PointRecord, ScenarioConfig,
    SweepParameter,
};

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("harvsim-explorefuzz-{tag}-{}-{n}.hvck", std::process::id()))
}

fn quick_base() -> ScenarioConfig {
    let mut base = ScenarioConfig::scenario1();
    base.duration_s = 0.05;
    base.frequency_step_time_s = 0.015;
    base
}

/// 2 chains × 3 points — small enough that the exhaustive truncation sweep
/// stays fast, structured enough that chains, warm starts and multi-record
/// recovery are all exercised.
fn spec() -> GridSpec {
    GridSpec::new(quick_base())
        .axis(SweepParameter::AccelerationAmplitude, &[0.5, 0.7])
        .axis(SweepParameter::InitialSupercapVoltage, &[2.4, 2.5, 2.6])
}

fn assert_matches_golden(resumed: &ExploreReport, golden: &ExploreReport, what: &str) {
    assert_eq!(resumed.offered, 6, "{what}");
    assert_eq!(resumed.completed, 6, "{what}: resumed grid must complete");
    assert_eq!(resumed.failed, 0, "{what}");
    assert_eq!(resumed.skipped, 0, "{what}");
    assert_eq!(resumed.rows.len(), golden.rows.len(), "{what}");
    for (row, gold) in resumed.rows.iter().zip(&golden.rows) {
        assert_eq!(row.index, gold.index, "{what}");
        assert_eq!(row.label, gold.label, "{what}");
        // Recovered-or-re-run, every row must carry the golden physics: a
        // resurrected corrupt row would diverge here.
        let (m, g) = (row.metrics().unwrap(), gold.metrics().unwrap());
        assert_eq!(m.steps, g.steps, "{what}: {} diverged", row.label);
        assert_eq!(
            m.v_last.to_bits(),
            g.v_last.to_bits(),
            "{what}: {} resumed to a different final voltage",
            row.label
        );
        for (a, b) in m.final_state.iter().zip(&g.final_state) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {} final state diverged", row.label);
        }
    }
    assert_eq!(resumed.pareto_front, golden.pareto_front, "{what}");
}

/// Rows recovered from the store must be the golden rows, bit for bit.
fn assert_recovered_rows_are_golden(resumed: &ExploreReport, golden: &ExploreReport, what: &str) {
    for row in resumed.rows.iter().filter(|row| row.recovered) {
        let gold: &PointRecord =
            golden.rows.iter().find(|gold| gold.index == row.index).expect("golden row exists");
        assert_eq!(
            row.metrics().unwrap().final_state,
            gold.metrics().unwrap().final_state,
            "{what}: recovered row {} is not the stored golden row",
            row.label
        );
    }
}

#[test]
fn every_truncation_offset_resumes_to_the_golden_grid() {
    let path = unique_path("trunc");
    let golden = Explorer::new(spec()).store(&path).run().unwrap();
    assert_eq!(golden.completed, 6);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!bytes.is_empty());

    // A kill can land anywhere: sample the whole range densely and hit
    // every frame boundary exactly (and one byte either side of it) — the
    // offsets where an off-by-one in the scanner would hide.
    let frame = bytes.len() / 6;
    let mut cuts: Vec<usize> = (0..=bytes.len()).step_by(17).collect();
    for k in 0..=6 {
        let boundary = k * frame;
        cuts.extend([boundary.saturating_sub(1), boundary, boundary + 1]);
    }
    cuts.retain(|cut| *cut <= bytes.len());
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let what = format!("truncation to {cut}/{} bytes", bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let resumed = Explorer::new(spec()).store(&path).resume().unwrap();
        assert_matches_golden(&resumed, &golden, &what);
        assert_recovered_rows_are_golden(&resumed, &golden, &what);
        // A full prefix of intact frames is recovered, not re-run: at `cut`
        // = n whole frames the scanner must hand back those n records.
        assert!(
            resumed.resumed >= cut / frame.max(1) && resumed.resumed <= 6,
            "{what}: recovered {} of 6 rows",
            resumed.resumed
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_bytes_drop_only_the_damaged_records() {
    let path = unique_path("flip");
    let golden = Explorer::new(spec()).store(&path).run().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // A spread of single-byte flips across the whole file (every 13th
    // offset keeps the battery fast while still hitting every frame
    // section: magic, header, payload, checksum).
    for at in (0..bytes.len()).step_by(13) {
        let what = format!("flip at byte {at}/{}", bytes.len());
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x55;
        std::fs::write(&path, &corrupt).unwrap();
        match Explorer::new(spec()).store(&path).resume() {
            Ok(resumed) => {
                assert_matches_golden(&resumed, &golden, &what);
                assert_recovered_rows_are_golden(&resumed, &golden, &what);
                assert!(
                    resumed.resumed < 6 || resumed.dropped_regions == 0,
                    "{what}: all 6 rows recovered despite a dropped region"
                );
            }
            // A flip anywhere — including inside a stored digest — breaks
            // the frame's whole-file checksum, so the frame is dropped and
            // re-run rather than refused; resume must always succeed here.
            Err(err) => panic!("{what}: resume failed: {err}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn double_corruption_and_garbage_prefixes_still_resync() {
    let path = unique_path("resync");
    let golden = Explorer::new(spec()).store(&path).run().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Garbage prepended before the first frame, a flip in the middle, and a
    // torn tail — all at once.
    let mut mangled = b"not a frame at all".to_vec();
    mangled.extend_from_slice(&bytes);
    let mid = mangled.len() / 2;
    mangled[mid] ^= 0xff;
    mangled.truncate(mangled.len() - 3);
    std::fs::write(&path, &mangled).unwrap();
    let resumed = Explorer::new(spec()).store(&path).resume().unwrap();
    assert_matches_golden(&resumed, &golden, "garbage prefix + flip + torn tail");
    assert!(resumed.dropped_regions >= 1, "the scanner must report the corrupt regions");
    assert!(resumed.resumed >= 1, "intact frames between the damage must survive");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_store_for_a_different_grid_is_refused_typed() {
    let path = unique_path("foreign");
    Explorer::new(spec()).store(&path).run().unwrap();

    // Same store file, different grid (one more acceleration value).
    let other = GridSpec::new(quick_base())
        .axis(SweepParameter::AccelerationAmplitude, &[0.5, 0.7, 0.9])
        .axis(SweepParameter::InitialSupercapVoltage, &[2.4, 2.5, 2.6]);
    match Explorer::new(other).store(&path).resume() {
        Err(CoreError::Checkpoint(CheckpointError::DigestMismatch { .. })) => {}
        Err(other) => panic!("expected a digest mismatch, got {other:?}"),
        Ok(_) => panic!("a foreign store was silently adopted"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_without_prior_store_runs_fresh_and_report_only_skips_execution() {
    let path = unique_path("fresh");
    // Resume against a store that does not exist yet = a fresh run.
    let report = Explorer::new(spec()).store(&path).resume().unwrap();
    assert_eq!(report.completed, 6);
    assert_eq!(report.resumed, 0);

    // Report-only recomputes from the store without executing anything.
    let replay = Explorer::new(spec()).store(&path).report_only().unwrap();
    assert_eq!(replay.resumed, 6);
    assert_eq!(replay.completed, 6);
    assert_eq!(replay.threads_used, 0, "report-only must not execute points");
    assert_eq!(replay.pareto_front, report.pareto_front);
    std::fs::remove_file(&path).ok();
}

/// Byte offsets where each stored frame ends (frames are laid back to back:
/// a 24-byte header whose bytes 16..24 hold the payload length, the payload,
/// an 8-byte checksum).
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let payload = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
        at += 24 + payload + 8;
        ends.push(at);
    }
    ends
}

#[test]
fn a_store_killed_mid_group_resumes_bit_identically() {
    // Two fork groups of three watchdog periods: a kill after any number of
    // rows leaves some group partly stored, and the rest of it must re-form
    // (recovered rows leave their group) and still land on the golden rows.
    let spec = || {
        GridSpec::new(quick_base())
            .axis(SweepParameter::AccelerationAmplitude, &[0.5, 0.7])
            .axis(SweepParameter::WatchdogPeriod, &[0.02, 0.03, 0.04])
    };
    let path = unique_path("group");
    let golden = Explorer::new(spec()).workers(1).store(&path).run().unwrap();
    assert_eq!(golden.completed, 6);
    assert_eq!(golden.warm_hits, 4, "the golden run must fork");
    let bytes = std::fs::read(&path).unwrap();
    let ends = frame_ends(&bytes);
    assert_eq!(ends.len(), 6);

    let mut cuts = vec![0];
    for (k, &end) in ends.iter().enumerate() {
        let start = if k == 0 { 0 } else { ends[k - 1] };
        cuts.extend([(start + end) / 2, end]);
    }
    for cut in cuts {
        let what = format!("kill after {cut}/{} bytes", bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let resumed = Explorer::new(spec()).workers(2).store(&path).resume().unwrap();
        assert_matches_golden(&resumed, &golden, &what);
        assert_recovered_rows_are_golden(&resumed, &golden, &what);
        let whole = ends.iter().filter(|end| **end <= cut).count();
        assert_eq!(resumed.resumed, whole, "{what}: every whole frame is recovered");
        for (row, gold) in resumed.rows.iter().zip(&golden.rows) {
            let (m, g) = (row.metrics().unwrap(), gold.metrics().unwrap());
            assert_eq!(m.energy_gain_j.to_bits(), g.energy_gain_j.to_bits(), "{what}");
            assert_eq!(m.rms_after_uw.to_bits(), g.rms_after_uw.to_bits(), "{what}");
            assert_eq!(m.dip_v.to_bits(), g.dip_v.to_bits(), "{what}");
        }
    }
    std::fs::remove_file(&path).ok();
}
