//! All experiment implementations, one module per table/figure.

pub mod ablations;
pub mod chaos;
pub mod composed;
pub mod figures;
pub mod fleet_scale;
pub mod tables;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{run_selected, Mode};
    use ic_scenario::Scenario;

    #[test]
    fn json_report_covers_every_experiment() {
        let records = run_selected(&Scenario::paper(), Mode::Quick, 1, None, None)
            .expect("the unfiltered selection always resolves");
        let out: Vec<String> = records.iter().map(|r| r.to_json()).collect();
        let lines: Vec<&str> = out.iter().map(String::as_str).collect();
        assert_eq!(lines.len(), 27, "one record per experiment");
        for line in &lines {
            assert!(line.starts_with("{\"id\":\""), "{line}");
            assert!(line.ends_with("]}"), "{line}");
        }
        for id in [
            "table1",
            "table3",
            "table5",
            "table11",
            "fig12",
            "fig15",
            "fig16",
            "composed",
            "composed_v2",
            "chaos",
        ] {
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with(&format!("{{\"id\":\"{id}\","))),
                "missing record for {id}"
            );
        }
        // The simulation-backed experiments must report their event counts.
        let table11 = lines
            .iter()
            .find(|l| l.contains("\"id\":\"table11\""))
            .unwrap();
        assert!(!table11.contains("\"sim_events\":0,"), "{table11}");
        // Paper targets ride along with measured values.
        assert!(table11.contains("\"paper\":0.58"));
        assert!(table11.contains("\"paper\":1.95"));
    }

    #[test]
    fn paper_anchored_metrics_track_the_paper() {
        let s = Scenario::paper();
        for m in tables::table3_metrics(&s) {
            let paper = m.paper.expect("table3 rows all have paper values");
            assert!(
                (m.measured - paper).abs() < 5.0,
                "{}: {} vs {paper}",
                m.name,
                m.measured
            );
        }
        let t5 = tables::table5_metrics(&s);
        assert_eq!(t5.len(), 6);
        for m in figures::fig12_metrics() {
            if m.name == "crossover_p95_delta_pct" {
                assert!(m.measured.abs() < 2.0, "crossover delta {}", m.measured);
            }
        }
    }
}
