//! The paper-layout workload the system suites share.

use multinoc::{NodeId, System};
use r8::asm::assemble;

const P1: NodeId = NodeId(1);
const P2: NodeId = NodeId(2);
const MEM: NodeId = NodeId(3);

/// P1 writes 777 through the remote memory, reads it back into its own
/// 0x20, pokes 0x5A5A into P2's memory and notifies P2; P2 waits for the
/// notify, copies that word to its 0x40 and halts. Loads both programs
/// into the paper layout and activates both cores.
pub fn load_handshake(sys: &mut System) {
    let mem_base = sys
        .address_map(P1)
        .expect("map")
        .window_base(MEM)
        .expect("window");
    let p2_base = sys
        .address_map(P1)
        .expect("map")
        .window_base(P2)
        .expect("window");
    let p1 = assemble(&format!(
        "LIW R1, {mem_base}\n\
         XOR R0, R0, R0\n\
         LIW R2, 777\n\
         ST  R2, R1, R0\n\
         LD  R3, R1, R0\n\
         LIW R4, 0x20\n\
         ST  R3, R4, R0\n\
         LIW R5, {p2_base}\n\
         LIW R6, 0x5A5A\n\
         ST  R6, R5, R0\n\
         LIW R7, 0xFFFD\n\
         LIW R2, {}\n\
         ST  R2, R0, R7\n\
         HALT",
        P2.as_u16(),
    ))
    .expect("p1 assembles");
    let p2 = assemble(&format!(
        "LIW R2, 0xFFFE\n\
         XOR R0, R0, R0\n\
         LIW R3, {}\n\
         ST  R3, R0, R2\n\
         LD  R4, R0, R0\n\
         LIW R5, 0x40\n\
         ST  R4, R5, R0\n\
         HALT",
        P1.as_u16(),
    ))
    .expect("p2 assembles");
    sys.memory_mut(P1)
        .expect("p1 memory")
        .write_block(0, p1.words());
    sys.memory_mut(P2)
        .expect("p2 memory")
        .write_block(0, p2.words());
    sys.activate_directly(P1).expect("activate p1");
    sys.activate_directly(P2).expect("activate p2");
}
