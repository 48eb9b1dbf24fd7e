//! The §3 area model: E3 device fit and floorplan, E4 NoC area share.
//! Nothing here is simulated, so each table enters the digest as its
//! rendered rows.

use floorplan::device::Device;
use floorplan::estimate::{multinoc_components, utilization};
use floorplan::place::{paper_layout, Placer};
use floorplan::scaling;
use hermes_noc::snapshot::fletcher64;
use multinoc_bench::suite::Runs;

use super::{row, Report, Table};
use crate::Outcome;

pub fn e3(runs: &mut Runs, report: &mut Report) -> Outcome {
    let device = Device::xc2s200e();
    let (components, nets) = multinoc_components();
    let mut resources = Table::new(&["component", "slices", "LUTs", "BlockRAMs"]);
    for c in &components {
        row!(resources, c.name, c.slices, c.luts, c.brams);
    }
    let u = utilization(&components, &device);
    row!(
        resources,
        "TOTAL",
        format!("{} ({:.0}%)", u.slices_used, u.slice_fraction() * 100.0),
        format!("{} ({:.0}%)", u.luts_used, u.lut_fraction() * 100.0),
        format!("{}/{}", u.brams_used, u.brams_total)
    );
    runs.record(resources.digest());
    report.table(&resources);

    let plan = paper_layout(&device, &components).map_err(std::io::Error::other)?;
    let art = plan.ascii_art();
    runs.record(fletcher64(art.as_bytes()));
    report.note(format!(
        "Fig. 7 floorplan (r router, P processor, S serial, M memory):\n\n```\n{art}```"
    ));

    let mut placements = Table::new(&[
        "placement",
        "legal",
        "wirelength",
        "router centr.",
        "serial->pads",
    ]);
    row!(
        placements,
        "manual (Fig. 7)",
        plan.is_legal(),
        format!("{:.0}", plan.wirelength(&nets)),
        format!("{:.1}", plan.router_centrality()),
        format!("{:.1}", plan.serial_pad_distance())
    );
    let mut annealed_legal = false;
    for seed in [1u64, 42, 99] {
        let auto = Placer::new(device.clone(), components.clone(), nets.clone())
            .seed(seed)
            .iterations(30_000)
            .run();
        annealed_legal |= auto.is_legal();
        row!(
            placements,
            format!("annealed (seed {seed})"),
            format!("{} (+{} overlap)", auto.is_legal(), auto.overlap()),
            format!("{:.0}", auto.wirelength(&nets)),
            format!("{:.1}", auto.router_centrality()),
            format!("{:.1}", auto.serial_pad_distance())
        );
    }
    runs.record(placements.digest());
    report.table(&placements);
    report.claim(
        u.slices_used == 2296 && (u.slice_fraction() * 100.0).round() == 98.0,
        "the system takes 2296 slices, 98 % of the device",
    );
    report.claim(
        u.luts_used == 3660 && (u.lut_fraction() * 100.0).round() == 78.0,
        "the system takes 3660 LUTs, 78 % of the device",
    );
    report.claim(plan.is_legal(), "the Fig. 7 layout is legal");
    report.claim(!annealed_legal, "all three annealed placements are illegal");
    Ok(())
}

pub fn e4(runs: &mut Runs, report: &mut Report) -> Outcome {
    report.note(format!(
        "The prototype itself (2x2, small IPs) spends {:.0}% of its logic on the NoC.",
        scaling::prototype_fraction() * 100.0
    ));
    let mut table = Table::new(&[
        "mesh",
        "IP slices",
        "NoC slices",
        "total slices",
        "NoC fraction",
    ]);
    let mut under_10 = true;
    let mut under_5 = true;
    for n in [2u32, 4, 6, 8, 10] {
        for ip_slices in [532u32, 1500, 3000, 6000] {
            let p = scaling::noc_fraction(n, ip_slices);
            match ip_slices {
                3000 => under_10 &= p.noc_fraction < 0.10,
                6000 => under_5 &= p.noc_fraction < 0.05,
                _ => {}
            }
            row!(
                table,
                format!("{n}x{n}"),
                ip_slices,
                p.noc_slices,
                p.total_slices,
                format!("{:.1}%", p.noc_fraction * 100.0)
            );
        }
    }
    runs.record(table.digest());
    report.table(&table);
    report.claim(
        under_10,
        "with 3,000-slice IPs the NoC is under 10 % of the area on every mesh",
    );
    report.claim(
        under_5,
        "with 6,000-slice IPs the NoC is under 5 % of the area on every mesh",
    );
    Ok(())
}
