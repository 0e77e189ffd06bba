//! The 1000BASE-ZX optical-link error model of Appendix D.6.1.
//!
//! The paper derives a packet-level frame-error rate (FER) for the
//! classical Gigabit-Ethernet link between quantum nodes from a
//! worst-case optical link budget, and concludes that at QL2020
//! distances the realistic FER is essentially zero (≈ 4×10⁻⁸ even with
//! an exaggerated 30 splices on 15 km), justifying the inflated loss
//! probabilities (10⁻¹⁰…10⁻⁴) used for the robustness stress test.
//!
//! The measured SNR→FER table of ref.\[56\] is not public; the curve below is
//! reconstructed (documented in `DESIGN.md`) to reproduce the three
//! anchor behaviours the paper reports:
//!
//! * no observable frame errors below ≈ 40 km with zero splices, with a
//!   very narrow transition to a dead link beyond it;
//! * FER ≈ 4×10⁻⁸ for 15 km with 30 splices of 0.3 dB;
//! * FER ≈ 10⁻¹⁰ for 20 km with 21 splices of 0.3 dB.

use qlink_math::stats::interp_clamped;

/// Worst-case optical link budget for a 1000BASE-ZX Gigabit Ethernet
/// transceiver pair (Appendix D.6.1 and refs.\[27\], \[61\]).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBudget {
    /// Transmit power, dBm (worst case −1 dBm).
    pub tx_power_dbm: f64,
    /// Receiver sensitivity, dBm (worst case −24 dBm).
    pub rx_sensitivity_dbm: f64,
    /// Fiber attenuation, dB/km (0.5 dB/km at 1550 nm, worst case;
    /// QL2020 fibers measured 0.43–0.47 dB/km).
    pub attenuation_db_per_km: f64,
    /// Loss per connector, dB (0.7 dB).
    pub connector_loss_db: f64,
    /// Number of connectors on the span.
    pub num_connectors: u32,
    /// Loss per splice/joint, dB (0.1 dB typical; the paper's
    /// exaggerated scenario uses 0.3 dB).
    pub splice_loss_db: f64,
    /// Number of splices on the span.
    pub num_splices: u32,
}

impl Default for LinkBudget {
    fn default() -> Self {
        Self::gigabit_1000base_zx()
    }
}

impl LinkBudget {
    /// The paper's worst-case 1000BASE-ZX parameters with two
    /// connectors and no splices.
    pub fn gigabit_1000base_zx() -> Self {
        LinkBudget {
            tx_power_dbm: -1.0,
            rx_sensitivity_dbm: -24.0,
            attenuation_db_per_km: 0.5,
            connector_loss_db: 0.7,
            num_connectors: 2,
            splice_loss_db: 0.1,
            num_splices: 0,
        }
    }

    /// Builder: set the number of splices and per-splice loss.
    pub fn with_splices(mut self, count: u32, loss_db: f64) -> Self {
        self.num_splices = count;
        self.splice_loss_db = loss_db;
        self
    }

    /// Total span loss in dB for a link of `length_km`.
    pub fn span_loss_db(&self, length_km: f64) -> f64 {
        assert!(length_km >= 0.0, "negative length");
        self.attenuation_db_per_km * length_km
            + self.connector_loss_db * self.num_connectors as f64
            + self.splice_loss_db * self.num_splices as f64
    }

    /// Power margin above receiver sensitivity, dB. Negative margins
    /// mean the receiver cannot establish the link at all.
    pub fn margin_db(&self, length_km: f64) -> f64 {
        self.tx_power_dbm - self.span_loss_db(length_km) - self.rx_sensitivity_dbm
    }

    /// Frame error probability for an IEEE 802.3 frame on this span.
    ///
    /// Reconstructed margin→FER curve (see module docs); monotone
    /// decreasing in margin, clamped to `[0, 1]`, interpolated in
    /// `log10(FER)`.
    pub fn frame_error_rate(&self, length_km: f64) -> f64 {
        let margin = self.margin_db(length_km);
        // (margin dB, log10 FER). Below 0 dB the link is dead (FER 1);
        // above 8 dB errors are beyond any observation horizon.
        const CURVE: [(f64, f64); 7] = [
            (0.0, 0.0),  // FER 1: disconnected
            (1.0, -2.0), // narrow transition region
            (1.6, -4.0), // errors "start to be observed" (≈40 km)
            (3.0, -6.0),
            (5.1, -7.4),  // ≈4e-8: 15 km + 30 × 0.3 dB splices
            (5.3, -10.0), // ≈1e-10: 20 km + 21 × 0.3 dB splices
            (8.0, -13.0),
        ];
        if margin <= 0.0 {
            return 1.0;
        }
        if margin >= 8.0 {
            return 0.0;
        }
        let log_fer = interp_clamped(&CURVE, margin);
        10f64.powf(log_fer).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_realistic_links_error_free() {
        // "For two example long-distance topologies (15 km and 20 km)
        // we ended up with a perfect frame error probability" (zero
        // splices).
        let lb = LinkBudget::gigabit_1000base_zx();
        assert!(lb.frame_error_rate(15.0) < 1e-10);
        assert!(lb.frame_error_rate(20.0) < 1e-10);
    }

    #[test]
    fn paper_anchor_30_splices_15km() {
        // "30 splices for a 15 km interface (0.3 dB loss/splice) …
        // a very low frame error probability of 4×10⁻⁸."
        let lb = LinkBudget::gigabit_1000base_zx().with_splices(30, 0.3);
        let fer = lb.frame_error_rate(15.0);
        assert!(
            (1e-8..=1e-7).contains(&fer),
            "FER at 15 km with 30 splices = {fer:e}"
        );
    }

    #[test]
    fn paper_anchor_21_splices_20km() {
        // "10⁻¹⁰ — an error rate level of a 20 km link with 21 splices".
        let lb = LinkBudget::gigabit_1000base_zx().with_splices(21, 0.3);
        let fer = lb.frame_error_rate(20.0);
        assert!(
            (1e-11..=1e-9).contains(&fer),
            "FER at 20 km with 21 splices = {fer:e}"
        );
    }

    #[test]
    fn errors_appear_beyond_40km() {
        let lb = LinkBudget::gigabit_1000base_zx();
        // Observable error rates only appear near/past ~40 km…
        assert!(lb.frame_error_rate(39.0) < 1e-4);
        assert!(lb.frame_error_rate(41.0) > 1e-3);
        // …with a narrow transition to a dead link.
        assert_eq!(lb.frame_error_rate(46.0), 1.0);
    }

    #[test]
    fn fer_monotone_in_length() {
        let lb = LinkBudget::gigabit_1000base_zx().with_splices(10, 0.3);
        let mut prev = 0.0;
        for step in 0..60 {
            let km = step as f64;
            let fer = lb.frame_error_rate(km);
            assert!(fer >= prev, "FER decreased at {km} km");
            prev = fer;
        }
    }

    #[test]
    fn span_loss_arithmetic() {
        let lb = LinkBudget::gigabit_1000base_zx().with_splices(4, 0.1);
        // 10 km: 5.0 + 1.4 + 0.4 = 6.8 dB.
        assert!((lb.span_loss_db(10.0) - 6.8).abs() < 1e-12);
        // Margin: −1 − 6.8 − (−24) = 16.2 dB.
        assert!((lb.margin_db(10.0) - 16.2).abs() < 1e-12);
    }

    #[test]
    fn dead_link_has_fer_one() {
        let lb = LinkBudget::gigabit_1000base_zx();
        assert_eq!(lb.frame_error_rate(100.0), 1.0);
    }
}
