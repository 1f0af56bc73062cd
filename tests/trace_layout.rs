//! Memory held by a stored trace: database traces are almost all
//! processor accesses, so their size is what the layout spends on one.

use dma_aware_mem::core::experiments::Workload;
use dma_aware_mem::sim::SimDuration;
use dma_aware_mem::workloads::DmaRecord;

/// A 1-ms OLTP-Db trace (~20,600 processor accesses, ~90 DMA transfers)
/// holds at most 8 bytes per processor access, one DMA record per
/// transfer, and a constant.
#[test]
fn oltp_db_trace_takes_8_bytes_per_processor_access() {
    let trace = Workload::OltpDb.generate(SimDuration::from_ms(1), 42);
    let s = trace.stats();
    assert!(s.proc_accesses > 10_000, "{s:?}");
    let bound = 8 * s.proc_accesses as usize
        + std::mem::size_of::<DmaRecord>() * s.dma_transfers() as usize
        + 256;
    assert!(
        trace.heap_bytes() <= bound,
        "{} bytes held, bound {bound} ({} accesses, {} transfers)",
        trace.heap_bytes(),
        s.proc_accesses,
        s.dma_transfers()
    );
}
