//! The debugger's stop reasons under fault injection: `AllHalted` means
//! every write a halted core made has landed, not only that the cores
//! stopped.

use hermes_noc::{FaultPlan, NocConfig, RouterAddr, Routing};
use multinoc::debug::{Debugger, StopReason};
use multinoc::processor::ProcessorStatus;
use multinoc::{System, SystemError, PROCESSOR_1, REMOTE_MEMORY};
use r8::asm::assemble;

#[test]
fn all_halted_waits_for_the_last_write_to_land() {
    // Regression: a halted core may still owe a write the network
    // dropped. `AllHalted` used to be reported before its
    // retransmission landed — at seed 2 with the remote word still 0,
    // and at seed 6 although every retry of the write was lost.
    let (mut landed, mut failed) = (0, 0);
    for seed in 0..8 {
        let mut system = System::builder()
            .noc(NocConfig::multinoc().with_routing(Routing::FaultTolerantXy))
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()
            .expect("paper layout");
        system
            .set_fault_plan(FaultPlan::new(seed).with_drop_rate(0.3))
            .expect("plan");
        let program = assemble("LIW R2, 2048\nXOR R0, R0, R0\nLIW R3, 5\nST R3, R2, R0\nHALT")
            .expect("assembles");
        system
            .memory_mut(PROCESSOR_1)
            .expect("p1 memory")
            .write_block(0, program.words());
        system.activate_directly(PROCESSOR_1).expect("activate");
        match Debugger::new().run(&mut system, 1_000_000) {
            Ok(stop) => {
                assert_eq!(stop, StopReason::AllHalted, "seed {seed}");
                assert!(system.net_quiet(), "seed {seed}: a write is still owed");
                // The plan may drop `activate_directly`'s unsequenced
                // packet, and then the core never runs.
                if system.processor_status(PROCESSOR_1).expect("status") == ProcessorStatus::Halted
                {
                    landed += 1;
                    let word = system.memory(REMOTE_MEMORY).expect("memory").read(0);
                    assert_eq!(word, 5, "seed {seed}");
                }
            }
            Err(SystemError::DeliveryFailed { .. }) => failed += 1,
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert_eq!((landed, failed), (3, 1));
}
