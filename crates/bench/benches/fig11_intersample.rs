//! Figure 11: distribution of times between samples in the TempAlarm
//! application.
//!
//! "In this experiment we quantify improvements in sampling quality
//! achievable with Capybara, by measuring the intervals between
//! temperature samples … when the input is the same sequence of 20
//! temperature alarm events. The sub-second intervals between back-to-back
//! samples are colored gray … The remaining inter-sample intervals are
//! broken down into ones during which one or more events occurred and were
//! (necessarily) missed, and those without any events."
//!
//! The three variants are the three points of a [`SweepSpec`] run in
//! parallel by `run_sweep_with_on`.

use capy_apps::events::poisson_events;
use capy_apps::metrics::{intersample_histogram, intersample_summary};
use capy_apps::ta;
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_units::rng::DetRng;
use capy_units::SimDuration;
use capybara::sweep::{available_workers, run_sweep_with_on, SweepSpec};
use capybara::variant::Variant;

const VARIANTS: [Variant; 3] = [Variant::Fixed, Variant::CapyR, Variant::CapyP];

struct PanelDetail {
    back_to_back: usize,
    quiet: usize,
    with_missed_events: usize,
    events_missed_in_gaps: usize,
    /// Non-back-to-back intervals outside both histogram ranges
    /// ([1 s, 5 s) and [10 s, 360 s]) — printed so the bars plus this
    /// count account for every interval.
    out_of_range: usize,
    bars: Vec<(String, usize)>,
}

fn main() {
    figure_header(
        "Figure 11",
        "distribution of times between TempAlarm samples",
    );
    // 20 events, mean 144 s, as in the Fig. 11 input sequence.
    let events = poisson_events(
        &mut DetRng::seed_from_u64(FIGURE_SEED ^ 0x11),
        SimDuration::from_secs(144),
        20,
        SimDuration::from_secs(45),
    );
    let horizon = *events.last().expect("events nonempty") + SimDuration::from_secs(200);

    let spec = SweepSpec::new("fig11", horizon)
        .base_seed(FIGURE_SEED)
        .axis("variant", &VARIANTS);
    let events_ref = &events;
    let (mut report, details) = run_sweep_with_on(&spec, available_workers(), |point| {
        let v = point.expect_axis::<Variant>("variant");
        let mut sim = ta::build(v, events_ref.clone(), FIGURE_SEED);
        sim.run_until(horizon);
        let classes =
            intersample_histogram(&sim.ctx().samples, events_ref, SimDuration::from_secs(40));
        let summary = intersample_summary(&classes);
        // Histogram of the >=1 s intervals in the paper's two ranges.
        // Both ranges are guarded explicitly: an interval below 1 s
        // would otherwise saturate `(s - 1.0) / 0.5` to bin 0, and the
        // [5 s, 10 s) band between the ranges is tallied instead of
        // silently dropped, so every interval is accounted for.
        let mut short_bins = [0usize; 8]; // 0.5 s bins over 1..5 s
        let mut long_bins = [0usize; 7]; // 50 s bins over 10..360 s
        let mut out_of_range = 0usize;
        for c in classes.iter().filter(|c| !c.back_to_back) {
            let s = c.length.as_secs_f64();
            if (1.0..5.0).contains(&s) {
                short_bins[(((s - 1.0) / 0.5) as usize).min(7)] += 1;
            } else if s >= 10.0 {
                long_bins[(((s - 10.0) / 50.0) as usize).min(6)] += 1;
            } else {
                out_of_range += 1;
            }
        }
        let mut bars: Vec<(String, usize)> = short_bins
            .iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    format!(
                        "{:>4.1}-{:<4.1}s",
                        1.0 + 0.5 * i as f64,
                        1.5 + 0.5 * i as f64
                    ),
                    *n,
                )
            })
            .collect();
        bars.extend(
            long_bins
                .iter()
                .enumerate()
                .map(|(i, n)| (format!("{:>4}-{:<4}s", 10 + 50 * i, 60 + 50 * i), *n)),
        );
        let detail = PanelDetail {
            back_to_back: summary.back_to_back,
            quiet: summary.quiet,
            with_missed_events: summary.with_missed_events,
            events_missed_in_gaps: summary.events_missed_in_gaps,
            out_of_range,
            bars,
        };
        (sim, detail)
    });
    // Stamp the report so the footer surfaces intervals the histograms
    // above leave out (the [5 s, 10 s) band between the two ranges).
    report.out_of_range = details.iter().map(|d| d.out_of_range as u64).sum();

    for (run, detail) in report.runs.iter().zip(&details) {
        println!("-- {} --", run.point.label);
        println!(
            "back_to_back(<1s)={} quiet(>=1s)={} gaps_with_missed_events={} events_in_gaps={} outside_histogram_ranges={}",
            detail.back_to_back,
            detail.quiet,
            detail.with_missed_events,
            detail.events_missed_in_gaps,
            detail.out_of_range
        );
        print!("{}", capy_bench::plot::bar_chart(&detail.bars, 40));
        println!();
    }
    sweep_footer(&report);

    println!("Expected shape: Fixed's non-back-to-back intervals sit in the");
    println!("long-bin range (its only recharge is the full large-bank");
    println!("charge), and many contain missed events. Capybara's sit in the");
    println!("1-5 s small-bank band, with the large bank charged only around");
    println!("actual alarm events; far fewer events land inside gaps.");
}
