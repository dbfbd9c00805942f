//! The Dickson (Greinacher/Cockcroft–Walton) voltage-multiplier block
//! (Section III-B, Eq. 14 of the paper).
//!
//! The power-processing circuit of the harvester is a 5-stage voltage
//! multiplier that rectifies and boosts the small AC voltage generated by the
//! coil before it charges the supercapacitor. The block's state variables are
//! the voltages across the stage capacitors (`V_1 … V_N`), its terminal
//! variables are the generator port (`V_m`, `I_m`) and the storage port
//! (`V_c`, `I_c`), and its diodes are represented by the piecewise-linear
//! companion models of [`crate::diode`]: at every linearisation point each
//! diode contributes a conductance `G_i` and a companion current source `J_i`
//! looked up from tables, so the march-in-time loop never evaluates an
//! exponential (the paper's central modelling trick for the power processor).
//!
//! # Topology
//!
//! The classic AC-driven charge-pump ladder is used:
//!
//! * capacitor `C_i` couples node `i` to the AC rail (`V_m`) for odd `i < N`
//!   ("pump" capacitors) and to ground for even `i` and for the final stage
//!   ("storage" capacitors);
//! * diode `D_i` points from node `i−1` to node `i`, with node 0 = ground;
//! * the storage terminal is node `N`, so `V_c = V_N`;
//! * a small shunt capacitor `C_in` loads the AC rail itself (the coil
//!   self-capacitance plus the lumped diode junction capacitances), so the
//!   rail voltage `V_rail` is the block's extra state and the generator port
//!   is never resistively open. Without it the port impedance collapses to
//!   `GMIN` whenever every diode is off and the coil-inductance mode becomes
//!   arbitrarily stiff, which defeats explicit integration entirely
//!   (DESIGN.md §3.2 discusses this regularisation).
//!
//! With ideal diodes the no-load DC output approaches
//! `2·⌊N/2⌋·V̂ − N·V_f`, i.e. boosting as well as rectification, which is what
//! lets a ~2 V EMF charge a multi-volt supercapacitor.

use harvsim_linalg::DVector;

use crate::block::{
    BlockError, JacobianStructure, LocalLinearisation, PwlRestamp, StateSpaceBlock,
};
use crate::diode::DiodeModel;
use crate::params::HarvesterParameters;

/// The voltage-multiplier power-processing block.
#[derive(Debug, Clone)]
pub struct DicksonMultiplier {
    stages: usize,
    stage_capacitance: f64,
    input_capacitance: f64,
    diode: DiodeModel,
    /// Evaluate the diodes through the analytic Shockley equations instead of
    /// the PWL lookup table — the device-evaluation policy of the commercial
    /// Newton–Raphson tools the baseline stands in for. Off by default (the
    /// proposed technique's whole point is the table).
    exact_companions: bool,
}

impl DicksonMultiplier {
    /// Builds the multiplier from the shared parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if the parameters fail
    /// validation or fewer than two stages are requested.
    pub fn new(params: &HarvesterParameters) -> Result<Self, BlockError> {
        params.validate()?;
        // The lookup tables cover the diode's operating region in this
        // micro-power circuit (currents of microamps to a few milliamps). The
        // upper edge of the table bounds the companion conductance, exactly as
        // the paper's tabulated PWL model does: transient voltage spikes beyond
        // the characterised region extrapolate with the edge slope instead of
        // the raw exponential, which keeps the explicit integration step from
        // collapsing without affecting the resolved waveforms.
        let diode = DiodeModel::new(
            params.diode_saturation_current,
            0.02585,
            params.diode_emission_coefficient,
            (-6.0, 0.20),
            params.diode_table_segments,
        )?;
        let mut multiplier =
            Self::with_components(params.multiplier_stages, params.stage_capacitance, diode)?;
        multiplier.input_capacitance = params.input_capacitance;
        Ok(multiplier)
    }

    /// Builds the multiplier from explicit component values. The rail shunt
    /// capacitance defaults to 1 % of the stage capacitance; use
    /// [`DicksonMultiplier::new`] to set it explicitly from a full parameter
    /// set (the practical device uses 470 nF, see DESIGN.md §3.2).
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] for fewer than two stages or a
    /// non-positive capacitance.
    pub fn with_components(
        stages: usize,
        stage_capacitance: f64,
        diode: DiodeModel,
    ) -> Result<Self, BlockError> {
        if stages < 2 {
            return Err(BlockError::InvalidParameter {
                name: "stages",
                value: stages as f64,
                constraint: "the multiplier needs at least two stages",
            });
        }
        if !(stage_capacitance > 0.0) {
            return Err(BlockError::InvalidParameter {
                name: "stage_capacitance",
                value: stage_capacitance,
                constraint: "must be positive",
            });
        }
        Ok(DicksonMultiplier {
            stages,
            stage_capacitance,
            input_capacitance: stage_capacitance * 0.01,
            diode,
            exact_companions: false,
        })
    }

    /// Number of multiplier stages (capacitors / diodes).
    pub fn stage_count(&self) -> usize {
        self.stages
    }

    /// Per-stage capacitance in farads.
    pub fn stage_capacitance(&self) -> f64 {
        self.stage_capacitance
    }

    /// Shunt capacitance at the AC input rail in farads.
    pub fn input_capacitance(&self) -> f64 {
        self.input_capacitance
    }

    /// The diode model used by every stage.
    pub fn diode(&self) -> &DiodeModel {
        &self.diode
    }

    /// Replaces the diode model (used by the PWL-granularity ablation).
    pub fn set_diode(&mut self, diode: DiodeModel) {
        self.diode = diode;
    }

    /// Switches between the PWL-table companions (default — the paper's
    /// technique) and exact analytic Shockley evaluation (the policy of the
    /// commercial tools the Newton–Raphson baseline reproduces; an `exp()`
    /// per diode per linearisation). In exact mode the block's Jacobians vary
    /// smoothly, so it reports [`JacobianStructure::Nonlinear`] and declines
    /// the segment-signature stamp skip.
    pub fn set_exact_companions(&mut self, exact: bool) {
        self.exact_companions = exact;
    }

    /// Whether the diodes are evaluated through the exact Shockley equations.
    pub fn exact_companions(&self) -> bool {
        self.exact_companions
    }

    /// Whether stage capacitor `i` (1-based) couples to the AC rail (`true`) or
    /// to ground (`false`).
    fn is_pump_capacitor(&self, i: usize) -> bool {
        i % 2 == 1 && i != self.stages
    }

    /// Rail-coupling coefficient `s_i`: node voltage is `n_i = V_i + s_i·V_rail`.
    fn rail_coefficient(&self, i: usize) -> f64 {
        if i == 0 {
            0.0 // node 0 is ground
        } else if self.is_pump_capacitor(i) {
            1.0
        } else {
            0.0
        }
    }

    /// Diode voltage `V_{d,i} = n_{i−1} − n_i` for the present state (the rail
    /// voltage is the last state entry, `x[stages]`). The hot stamping path
    /// inlines this computation over a slice borrow; the method remains the
    /// readable reference the companion-accuracy tests check against.
    #[cfg(test)]
    fn diode_voltage(&self, i: usize, x: &DVector) -> f64 {
        let vrail = x[self.stages];
        let prev = if i == 1 { 0.0 } else { x[i - 2] + self.rail_coefficient(i - 1) * vrail };
        let this = x[i - 1] + self.rail_coefficient(i) * vrail;
        prev - this
    }

    /// Ideal no-load DC output estimate `2·⌊N/2⌋·v_amplitude − N·diode_drop`,
    /// used by tests and examples as a sanity bound.
    pub fn ideal_no_load_voltage(&self, v_amplitude: f64, diode_drop: f64) -> f64 {
        2.0 * (self.stages / 2) as f64 * v_amplitude - self.stages as f64 * diode_drop
    }

    /// Walks every diode's operating-point voltage `V_{d,i} = n_{i−1} − n_i`
    /// (1-based diode index), recovering the node voltages from the state
    /// slice exactly once. This is the single definition the stamp and the
    /// signature computation share — the stamp-skip contract ("equal
    /// signature ⇒ bit-identical stamp") requires both to see identical
    /// voltages, so the recovery must not be allowed to drift between copies.
    #[inline]
    fn for_each_diode_voltage(&self, xs: &[f64], mut visit: impl FnMut(usize, f64)) {
        let n = self.stages;
        let vrail = xs[n];
        for i in 1..=n {
            let prev_node =
                if i == 1 { 0.0 } else { xs[i - 2] + self.rail_coefficient(i - 1) * vrail };
            let this_node = xs[i - 1] + self.rail_coefficient(i) * vrail;
            visit(i, prev_node - this_node);
        }
    }

    /// Whether this configuration can encode a PWL segment signature at all
    /// (table-companion mode, packable stage count and table size).
    fn signature_fits(&self) -> bool {
        !self.exact_companions
            && self.stages <= SIGNATURE_MAX_DIODES
            && self.diode.total_segments() < (1 << SEGMENT_BITS)
    }

    /// Looks up every diode's companion pair and stamps the linearisation
    /// into `out` — or, under a matching `previous` segment signature, leaves
    /// `out` alone. In table mode each diode costs one segment lookup, walked
    /// from its segment in `previous` when one is given (a diode mostly stays
    /// in its segment or moves to a neighbour between steps), and the same
    /// lookups pack the signature, so tracking it is free. Uses the caller's
    /// 1-based per-diode scratch (a zero sentinel at index `stages + 1`), so
    /// the stack-buffered hot path and the heap fallback of
    /// [`StateSpaceBlock::relinearise_pwl_into`] share one body.
    fn relinearise_with(
        &self,
        x: &DVector,
        previous: Option<u64>,
        segments: &mut [usize],
        conductance: &mut [f64],
        companion: &mut [f64],
        out: &mut LocalLinearisation,
    ) -> PwlRestamp {
        let n = self.stages;
        if self.exact_companions {
            self.for_each_diode_voltage(x.as_slice(), |i, vd| {
                (conductance[i], companion[i]) = self.diode.exact_companion(vd);
            });
            self.stamp_linearisation(conductance, companion, out);
            return PwlRestamp::Stamped(None);
        }
        let fits = self.signature_fits();
        let hints = previous.filter(|_| fits);
        let mut packed = 0u64;
        self.for_each_diode_voltage(x.as_slice(), |i, vd| {
            segments[i] = match hints {
                Some(bits) => {
                    let hint =
                        (bits >> ((n - i) * SEGMENT_BITS)) as usize & ((1 << SEGMENT_BITS) - 1);
                    self.diode.companion_segment_from(hint, vd)
                }
                None => self.diode.companion_segment(vd),
            };
            packed = (packed << SEGMENT_BITS) | segments[i] as u64;
        });
        let signature = fits.then_some(packed);
        if signature.is_some() && signature == previous {
            return PwlRestamp::Unchanged;
        }
        for i in 1..=n {
            (conductance[i], companion[i]) = self.diode.companion_in_segment(segments[i]);
        }
        self.stamp_linearisation(conductance, companion, out);
        PwlRestamp::Stamped(signature)
    }

    /// Stamps the linearisation into `out` from the per-diode companion pairs
    /// `(G_i, J_i)` (1-based scratch).
    fn stamp_linearisation(
        &self,
        conductance: &[f64],
        companion: &[f64],
        out: &mut LocalLinearisation,
    ) {
        let n = self.stages;
        let cap = self.stage_capacitance;
        let cin = self.input_capacitance;
        out.clear();

        // Partial derivatives of the diode current i_i = G_i·(n_{i-1} - n_i) + J_i
        // with node voltages n_i = V_i + s_i·V_rail (V_rail is state index n):
        //   ∂i_i/∂V_{i-1}  = +G_i, ∂i_i/∂V_i = -G_i,
        //   ∂i_i/∂V_rail   = G_i·(s_{i-1} - s_i).
        //
        // Each diode's quotients G_i/C and J_i/C are divided once and shared
        // by its entries, bit for bit: (−G)/C is −(G/C) exactly, and the
        // rail-coefficient differences are −1, +0 or 1, so (G·d)/C equals
        // d·(G/C) and ((−G)·d)/C equals −(d·(G/C)), signed zeros included.
        let rail = |i: usize| self.rail_coefficient(i);

        let mut g_in = conductance[1] / cap;
        let mut j_in = companion[1] / cap;
        for row in 1..=n {
            let r = row - 1;
            let (g_out, j_out) = if row < n {
                (conductance[row + 1] / cap, companion[row + 1] / cap)
            } else {
                (0.0, 0.0)
            };
            // All of row `r`'s stamps land in one mutable row slice.
            let a_row = out.a.row_mut(r);

            // Inflow diode D_row.
            if row >= 2 {
                a_row[row - 2] += g_in;
            }
            a_row[r] += -g_in;
            a_row[n] += (rail(row - 1) - rail(row)) * g_in;
            out.e[r] += j_in;

            // Outflow diode D_{row+1}.
            if row < n {
                a_row[r] += -g_out;
                a_row[row] += g_out;
                a_row[n] += -((rail(row) - rail(row + 1)) * g_out);
                out.e[r] -= j_out;
            }

            // Output current leaves the final node.
            if row == n {
                out.b.add_to(r, 3, -1.0 / cap);
            }
            (g_in, j_in) = (g_out, j_out);
        }

        // Rail state equation: C_in·dV_rail/dt = Im + Σ_{pump i} (i_i − i_{i+1}).
        // Each pump capacitor's displacement current (i_i − i_{i+1} at its node
        // plate) exits at its rail plate, so it adds to the generator current in
        // the rail's KCL; with C_in → 0 this reduces to the algebraic input-
        // current constraint the block previously imposed.
        out.b.add_to(n, 1, 1.0 / cin);
        let a_rail = out.a.row_mut(n);
        let mut e_rail = 0.0;
        for i in 1..=n {
            if !self.is_pump_capacitor(i) {
                continue;
            }
            // + i_i terms.
            let (g_in, j_in) = (conductance[i] / cin, companion[i] / cin);
            if i >= 2 {
                a_rail[i - 2] += g_in;
            }
            a_rail[i - 1] += -g_in;
            a_rail[n] += (rail(i - 1) - rail(i)) * g_in;
            e_rail += j_in;
            // − i_{i+1} terms.
            if i < n {
                let (g_out, j_out) = (conductance[i + 1] / cin, companion[i + 1] / cin);
                a_rail[i - 1] += -g_out;
                a_rail[i] += g_out;
                a_rail[n] += -((rail(i) - rail(i + 1)) * g_out);
                e_rail -= j_out;
            }
        }
        out.e[n] += e_rail;

        // Constraint 1: Vc - V_N = 0.
        out.c[(0, n - 1)] = -1.0;
        out.d[(0, 2)] = 1.0;

        // Constraint 2: Vm - V_rail = 0 (the port voltage is the rail state).
        out.d[(1, 0)] = 1.0;
        out.c[(1, n)] = -1.0;
    }
}

/// Bits per diode in the packed segment signature (table sizes up to 1023
/// segments).
const SEGMENT_BITS: usize = 10;

/// Largest diode count the 64-bit signature packs at [`SEGMENT_BITS`] bits
/// each.
const SIGNATURE_MAX_DIODES: usize = 6;

/// Largest stage count for which the per-diode companion scratch fits on the
/// stack; taller ladders (far beyond any physical design — the paper's device
/// has five stages) fall back to a heap-allocated scratch.
const MAX_STACK_STAGES: usize = 30;

impl StateSpaceBlock for DicksonMultiplier {
    fn name(&self) -> &str {
        "dickson-multiplier"
    }

    fn state_count(&self) -> usize {
        self.stages + 1
    }

    fn terminal_count(&self) -> usize {
        4
    }

    fn constraint_count(&self) -> usize {
        2
    }

    fn state_names(&self) -> Vec<String> {
        (1..=self.stages)
            .map(|i| format!("V{i}"))
            .chain(std::iter::once("Vrail".to_string()))
            .collect()
    }

    fn terminal_names(&self) -> Vec<String> {
        vec!["Vm".to_string(), "Im".to_string(), "Vc".to_string(), "Ic".to_string()]
    }

    fn initial_state(&self) -> DVector {
        DVector::zeros(self.stages + 1)
    }

    fn linearise(&self, t: f64, x: &DVector, y: &DVector) -> LocalLinearisation {
        let mut out = LocalLinearisation::zeros(self.stages + 1, 4, 2);
        self.linearise_into(t, x, y, &mut out);
        out
    }

    fn linearise_into(&self, t: f64, x: &DVector, y: &DVector, out: &mut LocalLinearisation) {
        self.relinearise_pwl_into(t, x, y, None, out);
    }

    /// Hinted relinearisation: every diode's segment lookup starts from its
    /// segment in `previous`, and the lookups that feed the companion chords
    /// also produce the signature the skip compares.
    fn relinearise_pwl_into(
        &self,
        _t: f64,
        x: &DVector,
        _y: &DVector,
        previous: Option<u64>,
        out: &mut LocalLinearisation,
    ) -> PwlRestamp {
        let n = self.stages;
        if n <= MAX_STACK_STAGES {
            // 1-based scratch with a zero sentinel at n+1, on the stack.
            let mut segments = [0; MAX_STACK_STAGES + 2];
            let mut conductance = [0.0; MAX_STACK_STAGES + 2];
            let mut companion = [0.0; MAX_STACK_STAGES + 2];
            self.relinearise_with(
                x,
                previous,
                &mut segments[..n + 2],
                &mut conductance[..n + 2],
                &mut companion[..n + 2],
                out,
            )
        } else {
            let mut segments = vec![0; n + 2];
            let mut conductance = vec![0.0; n + 2];
            let mut companion = vec![0.0; n + 2];
            self.relinearise_with(x, previous, &mut segments, &mut conductance, &mut companion, out)
        }
    }

    /// The diode companion conductances come from piecewise-linear lookup
    /// tables: the block's Jacobians jump when a diode voltage crosses a
    /// table segment and are constant in between. In exact-evaluation mode
    /// they instead vary smoothly with the operating point — the conservative
    /// `Nonlinear` contract.
    fn jacobian_structure(&self) -> JacobianStructure {
        if self.exact_companions {
            JacobianStructure::Nonlinear
        } else {
            JacobianStructure::Pwl
        }
    }

    /// Per-diode PWL segment signature. The multiplier's entire local
    /// linearisation is a pure function of which lookup-table segment each
    /// diode operates in: the companion pairs `(G_i, J_i)` are segment chords
    /// (constant within a segment, see [`DiodeModel::companion`]), every
    /// Jacobian entry is a fixed combination of the `G_i` and the capacitor
    /// values, the affine terms are fixed combinations of the `J_i`, and the
    /// `B`/`C`/`D` stamps are constants. Packing the segment indices (10 bits
    /// per diode) therefore yields an *exact* key: an unchanged signature
    /// guarantees a bit-identical stamp, so the assembler can skip the scatter
    /// and the Eq. 3 monitor for this block entirely. Ladders taller than six
    /// diodes or tables with ≥ 1024 segments do not fit the packing and
    /// decline the skip (`None`) — the paper's device is five stages over a
    /// 600-segment table.
    fn pwl_signature(&self, _t: f64, x: &DVector, _y: &DVector) -> Option<u64> {
        if !self.signature_fits() {
            return None;
        }
        let mut signature = 0u64;
        self.for_each_diode_voltage(x.as_slice(), |_i, vd| {
            signature = (signature << SEGMENT_BITS) | self.diode.companion_segment(vd) as u64;
        });
        Some(signature)
    }

    /// The block's two *interface* states are stiff by construction, not by
    /// physics, and go to the partitioned solver's exact exponential lane:
    ///
    /// * `V_rail` (the last state) — the 470 nF regularisation capacitance of
    ///   DESIGN.md §3.2, an artifact of keeping the generator port
    ///   resistively closed when every diode is off (its pole reaches
    ///   −G_on/C_in ≈ −10⁵ s⁻¹ in conduction);
    /// * `V_N` (the output stage) — the 10 µF stage capacitor sitting
    ///   directly on the storage port, whose pole
    ///   `−(1/R_i + 1/R_d + 1/R_l + 1/R_load)/C_N ≈ −4.1·10⁴ s⁻¹` against
    ///   the supercapacitor's 2.5 Ω immediate branch is the mode PR 3
    ///   measured binding the explicit march in *every* scenario (DESIGN.md
    ///   §7 — the pole the roadmap attributed to the rail shunt is in fact
    ///   this storage-interface mode; the two are the same order of
    ///   magnitude and both are orders faster than any waveform of
    ///   interest).
    fn stiff_states(&self) -> Vec<usize> {
        vec![self.stages - 1, self.stages]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiplier() -> DicksonMultiplier {
        DicksonMultiplier::new(&HarvesterParameters::practical_device()).unwrap()
    }

    fn small_multiplier(stages: usize) -> DicksonMultiplier {
        // 1 µF stages settle quickly in the standalone integration tests below.
        DicksonMultiplier::with_components(stages, 1e-6, DiodeModel::schottky().unwrap()).unwrap()
    }

    #[test]
    fn block_metadata() {
        let m = multiplier();
        assert_eq!(m.name(), "dickson-multiplier");
        assert_eq!(m.stage_count(), 5);
        assert_eq!(m.state_count(), 6, "five stage voltages plus the rail state");
        assert_eq!(m.terminal_count(), 4);
        assert_eq!(m.constraint_count(), 2);
        assert_eq!(m.state_names(), vec!["V1", "V2", "V3", "V4", "V5", "Vrail"]);
        assert_eq!(m.terminal_names(), vec!["Vm", "Im", "Vc", "Ic"]);
        assert_eq!(m.initial_state().len(), 6);
        assert!(m.stage_capacitance() > 0.0);
        assert!(m.input_capacitance() > 0.0);
        assert!(m.input_capacitance() < m.stage_capacitance());
        assert!(m.diode().saturation_current() > 0.0);
    }

    #[test]
    fn construction_validation() {
        assert!(
            DicksonMultiplier::with_components(1, 1e-6, DiodeModel::schottky().unwrap()).is_err()
        );
        assert!(
            DicksonMultiplier::with_components(3, 0.0, DiodeModel::schottky().unwrap()).is_err()
        );
        let mut params = HarvesterParameters::practical_device();
        params.multiplier_stages = 1;
        assert!(DicksonMultiplier::new(&params).is_err());
    }

    #[test]
    fn pump_capacitor_pattern() {
        let m = multiplier();
        // 5 stages: caps 1 and 3 are pump (AC-coupled), 2, 4 and 5 ground-referenced.
        assert!(m.is_pump_capacitor(1));
        assert!(!m.is_pump_capacitor(2));
        assert!(m.is_pump_capacitor(3));
        assert!(!m.is_pump_capacitor(4));
        assert!(!m.is_pump_capacitor(5));
        let m4 = small_multiplier(4);
        assert!(m4.is_pump_capacitor(1));
        assert!(m4.is_pump_capacitor(3));
        assert!(!m4.is_pump_capacitor(4));
    }

    #[test]
    fn linearisation_is_consistent() {
        let m = multiplier();
        let lin = m.linearise(0.0, &DVector::zeros(6), &DVector::from_slice(&[1.0, 0.0, 0.0, 0.0]));
        assert!(lin.is_consistent());
        assert_eq!(lin.state_count(), 6);
        assert_eq!(lin.terminal_count(), 4);
        assert_eq!(lin.constraint_count(), 2);
        // Output-voltage constraint row: Vc - V5 = 0.
        assert_eq!(lin.c[(0, 4)], -1.0);
        assert_eq!(lin.d[(0, 2)], 1.0);
        // Port-voltage constraint row: Vm - Vrail = 0.
        assert_eq!(lin.d[(1, 0)], 1.0);
        assert_eq!(lin.c[(1, 5)], -1.0);
        // Output current enters the last stage row with -1/C.
        assert!((lin.b[(4, 3)] + 1.0 / m.stage_capacitance()).abs() < 1e-6);
        // The generator current charges the rail shunt capacitor.
        assert!((lin.b[(5, 1)] - 1.0 / m.input_capacitance()).abs() < 1e-6);
    }

    #[test]
    fn companion_linearisation_matches_nonlinear_currents() {
        // The affine model A·x + B·y + e must reproduce the exact nonlinear
        // state derivative at the linearisation point itself.
        let m = small_multiplier(5);
        // The rail state (last entry) matches the Vm terminal value.
        let x = DVector::from_slice(&[0.5, 1.2, 0.8, 2.0, 1.9, 1.5]);
        let y = DVector::from_slice(&[1.5, 0.0, 1.9, 1e-5]);
        let lin = m.linearise(0.0, &x, &y);
        let dx_lin = lin.state_derivative(&x, &y);

        // Exact derivative from the Shockley currents.
        let ic = y[3];
        let mut currents = [0.0; 7];
        for (i, current) in currents.iter_mut().enumerate().take(6).skip(1) {
            *current = m.diode().current(m.diode_voltage(i, &x));
        }
        for row in 1..=5usize {
            let outflow = if row < 5 { currents[row + 1] } else { 0.0 };
            let load = if row == 5 { ic } else { 0.0 };
            let exact = (currents[row] - outflow - load) / m.stage_capacitance();
            let relative_scale = exact.abs().max(1.0);
            assert!(
                (dx_lin[row - 1] - exact).abs() / relative_scale < 0.05,
                "row {row}: linearised {} vs exact {exact}",
                dx_lin[row - 1]
            );
        }
    }

    /// Standalone charge-pump integration: drive Vm with a sinusoid, leave the
    /// output unloaded, and verify the output voltage climbs above the input
    /// amplitude (i.e. the circuit boosts, not just rectifies).
    #[test]
    fn unloaded_multiplier_boosts_the_input_amplitude() {
        let m = small_multiplier(5);
        let amplitude = 2.0;
        let freq = 70.0;
        let h = 2e-6;
        let steps = (0.35 / h) as usize;
        let mut x = m.initial_state();
        for k in 0..steps {
            let t = k as f64 * h;
            let vm = amplitude * (2.0 * std::f64::consts::PI * freq * t).sin();
            // Drive the rail as an ideal source: pin the rail state to vm.
            x[5] = vm;
            let y = DVector::from_slice(&[vm, 0.0, x[4], 0.0]);
            let lin = m.linearise(t, &x, &y);
            let dx = lin.state_derivative(&x, &y);
            x.axpy(h, &dx).unwrap();
            assert!(x.is_finite(), "state must stay finite at step {k}");
        }
        let v_out = x[4];
        assert!(
            v_out > amplitude * 1.2,
            "multiplier should boost beyond the input amplitude, got {v_out}"
        );
        assert!(
            v_out < m.ideal_no_load_voltage(amplitude, 0.0) + 0.5,
            "output cannot exceed the ideal multiplication bound, got {v_out}"
        );
        // All internal stage voltages stay bounded by the ideal limit too.
        for i in 0..5 {
            assert!(x[i].abs() < 2.0 * (5.0 * amplitude), "stage {i} voltage {}", x[i]);
        }
    }

    #[test]
    fn two_stage_multiplier_approaches_doubler_voltage() {
        let m = small_multiplier(2);
        let amplitude = 2.0;
        let freq = 70.0;
        let h = 2e-6;
        let steps = (0.35 / h) as usize;
        let mut x = m.initial_state();
        for k in 0..steps {
            let t = k as f64 * h;
            let vm = amplitude * (2.0 * std::f64::consts::PI * freq * t).sin();
            // Drive the rail as an ideal source: pin the rail state to vm.
            x[2] = vm;
            let y = DVector::from_slice(&[vm, 0.0, x[1], 0.0]);
            let lin = m.linearise(t, &x, &y);
            let dx = lin.state_derivative(&x, &y);
            x.axpy(h, &dx).unwrap();
        }
        // Greinacher doubler: V_out → 2·V̂ − 2·V_f ≈ 3.4 V for a Schottky diode.
        assert!(x[1] > 2.5, "doubler output {}", x[1]);
        assert!(x[1] < 2.0 * amplitude, "doubler output bounded by 2·V̂, got {}", x[1]);
    }

    #[test]
    fn ideal_voltage_estimate() {
        let m = multiplier();
        assert_eq!(m.ideal_no_load_voltage(2.0, 0.0), 8.0);
        assert!((m.ideal_no_load_voltage(2.0, 0.3) - (8.0 - 1.5)).abs() < 1e-12);
        let m2 = small_multiplier(2);
        assert_eq!(m2.ideal_no_load_voltage(2.0, 0.0), 4.0);
    }

    /// The segment signature is an exact stamp key: equal signatures must mean
    /// bit-identical linearisations, and a diode crossing a table segment must
    /// change it.
    #[test]
    fn pwl_signature_keys_the_stamp_exactly() {
        let m = multiplier();
        let y = DVector::from_slice(&[1.5, 0.0, 1.9, 1e-5]);
        let x_a = DVector::from_slice(&[0.5, 1.2, 0.8, 2.0, 1.9, 1.5]);
        // Nudge every state by much less than one table segment (~10 mV).
        let mut x_b = x_a.clone();
        for i in 0..6 {
            x_b[i] += 1e-6;
        }
        let sig_a = m.pwl_signature(0.0, &x_a, &y).expect("5 stages / 600 segments fit");
        let sig_b = m.pwl_signature(0.0, &x_b, &y).expect("fits");
        if sig_a == sig_b {
            // The promise: equal signature ⇒ bit-identical stamp.
            assert_eq!(m.linearise(0.0, &x_a, &y), m.linearise(0.0, &x_b, &y));
        }
        // Moving a forward-biased diode through the knee region crosses fine
        // segments and must change the signature (D5 sits at
        // vd = V4 − V5 = 0.1 V here, inside the fine knee grid).
        let mut x_c = x_a.clone();
        x_c[4] -= 0.05;
        assert_ne!(sig_a, m.pwl_signature(0.0, &x_c, &y).expect("fits"));
        // A deep-reverse swing stays inside one coarse segment: the signature
        // holds and the contract still guarantees a bit-identical stamp.
        let mut x_d = x_a.clone();
        x_d[5] += 0.3;
        if m.pwl_signature(0.0, &x_d, &y) == Some(sig_a) {
            assert_eq!(m.linearise(0.0, &x_a, &y).a, m.linearise(0.0, &x_d, &y).a);
        }
        // Exact-evaluation mode declines the contract entirely.
        let mut exact = multiplier();
        exact.set_exact_companions(true);
        assert_eq!(exact.pwl_signature(0.0, &x_a, &y), None);
        assert_eq!(exact.jacobian_structure(), JacobianStructure::Nonlinear);
        // Configurations outside the packing decline the skip.
        let fine = m.diode().with_table_segments(2048).unwrap();
        let mut wide = multiplier();
        wide.set_diode(fine);
        assert_eq!(wide.pwl_signature(0.0, &x_a, &y), None);
    }

    /// The hinted relinearisation is exact: along a trajectory that drives
    /// every diode through the knee, it reports `Unchanged` exactly when the
    /// fresh signature equals the previous one, and otherwise stamps what a
    /// fresh linearisation stamps; arbitrary (even garbage) previous
    /// signatures change neither outcome.
    #[test]
    fn hinted_relinearisation_matches_a_fresh_stamp() {
        let m = multiplier();
        let y = DVector::from_slice(&[1.5, 0.0, 1.9, 1e-5]);
        let point = |k: usize| {
            let phase = k as f64 * 2e-3;
            let rail = 2.0 * (2.0 * std::f64::consts::PI * phase).sin();
            DVector::from_slice(&[
                -0.5 + 0.1 * phase,
                1.2 + 0.05 * (3.0 * phase).sin(),
                0.8 + 0.1 * phase,
                2.4,
                2.5 - 0.05 * (5.0 * phase).cos(),
                rail,
            ])
        };
        let mut previous = None;
        let mut out = LocalLinearisation::zeros(6, 4, 2);
        let (mut unchanged, mut stamped) = (0, 0);
        for k in 0..4000 {
            let x = point(k);
            let fresh = m.linearise(0.0, &x, &y);
            let signature = m.pwl_signature(0.0, &x, &y);
            match m.relinearise_pwl_into(0.0, &x, &y, previous, &mut out) {
                PwlRestamp::Unchanged => {
                    assert_eq!(signature, previous, "step {k}");
                    unchanged += 1;
                }
                PwlRestamp::Stamped(new) => {
                    assert_eq!(new, signature, "step {k}");
                    assert!(previous.is_none() || new != previous, "step {k}");
                    previous = new;
                    stamped += 1;
                }
            }
            assert_eq!(out, fresh, "step {k}");

            for garbage in [0, u64::MAX, 0x0123_4567_89ab_cdef, signature.unwrap() ^ 1] {
                let mut probe = LocalLinearisation::zeros(6, 4, 2);
                match m.relinearise_pwl_into(0.0, &x, &y, Some(garbage), &mut probe) {
                    PwlRestamp::Unchanged => assert_eq!(Some(garbage), signature),
                    PwlRestamp::Stamped(new) => {
                        assert_eq!(new, signature);
                        assert_eq!(probe, fresh);
                    }
                }
            }
        }
        assert!(unchanged > 100 && stamped > 100, "{unchanged} skips / {stamped} stamps");

        // Exact-evaluation mode always stamps and never signs.
        let mut exact = multiplier();
        exact.set_exact_companions(true);
        let x = point(7);
        let mut out = LocalLinearisation::zeros(6, 4, 2);
        assert_eq!(
            exact.relinearise_pwl_into(0.0, &x, &y, Some(0), &mut out),
            PwlRestamp::Stamped(None)
        );
        assert_eq!(out, exact.linearise(0.0, &x, &y));
    }

    #[test]
    fn diode_table_granularity_can_be_swapped() {
        let mut m = multiplier();
        let coarse = m.diode().with_table_segments(16).unwrap();
        m.set_diode(coarse);
        assert_eq!(m.diode().table_segments(), 16);
        // The block still produces a consistent linearisation.
        let lin = m.linearise(0.0, &DVector::zeros(6), &DVector::from_slice(&[0.5, 0.0, 0.0, 0.0]));
        assert!(lin.is_consistent());
    }
}
