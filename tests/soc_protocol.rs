//! SoC protocol integration: the ARM-side control path of paper Fig. 1 —
//! Avalon bus, CSR doorbells, DMA descriptors, DDR staging, and the
//! accelerator — wired together the way the real system is. The DDR
//! model keeps no bytes: the host's buffers are what DDR holds, the model
//! checks and counts every access, and the DMA moves tiles out of the
//! staged map through its data plane.

use zskip::accel::cycle;
use zskip::accel::{AccelConfig, BankSet, ConvInstr, FmLayout, GroupWeights, Instruction};
use zskip::hls::AccelArch;
use zskip::nn::conv::{conv2d_quant_dense, QuantConvWeights};
use zskip::quant::{Requantizer, Sm8};
use zskip::soc::csr::{status, AccelCsr, CsrFile, ACCEL_CSR_BASE, CSR_BLOCK_LEN};
use zskip::soc::dma::{BankGeometry, DataPlane, DmaController, DmaDescriptor, DmaDirection};
use zskip::soc::{AvalonBus, DdrModel, DeviceFault, HostCpu, HostError};
use zskip::tensor::{Shape, Tensor, TiledFeatureMap};

fn config() -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 2048 }, 100.0)
}

fn small_layer() -> (QuantConvWeights, Tensor<Sm8>) {
    let qw = QuantConvWeights::new(
        4,
        4,
        3,
        (0..144)
            .map(|i| if i % 4 == 0 { Sm8::ZERO } else { Sm8::from_i32_saturating((i % 11) - 5) })
            .collect(),
        vec![1, -1, 2, -2],
        Requantizer::from_ratio(1.0 / 32.0),
        true,
    );
    let input = Tensor::from_fn(4, 8, 8, |c, y, x| Sm8::from_i32_saturating(((c * 13 + y * 5 + x) % 160) as i32 - 80));
    (qw, input)
}

/// The full host-visible flow: stage data in DDR, DMA it into banks,
/// program the CSRs over Avalon, ring the doorbell, execute, poll DONE,
/// DMA results back, verify against the golden model.
#[test]
fn full_csr_dma_inference_round_trip() {
    let cfg = config();
    let (qw, input) = small_layer();

    // --- Host side: Avalon bus with the accelerator CSR block mapped.
    let mut bus = AvalonBus::new();
    bus.map("accel-csr", ACCEL_CSR_BASE, CSR_BLOCK_LEN, Box::new(CsrFile::new()));
    let mut host = HostCpu::new();

    // --- Stage activations + instruction stream in DDR.
    let mut ddr = DdrModel::new(1 << 20);
    let padded = input.padded(1);
    let tiled = TiledFeatureMap::from_tensor(&padded);
    let in_layout = FmLayout::full(0, padded.shape());
    let out_shape = Shape::new(qw.out_c, 8, 8);
    let out_layout = FmLayout::full(in_layout.end(), out_shape);
    ddr.write_block(0, tiled.tile_count() * 16);

    let gw = GroupWeights::from_filters(&qw, 0, cfg.lanes);
    let scratchpad = gw.as_bytes().to_vec();

    let instr = ConvInstr::for_group(&qw, 0, cfg.lanes, &in_layout, 0, &out_layout, 0).expect("fits the fields");
    let instr = Instruction::Conv(instr);
    let stream = Instruction::encode_stream(&[instr]);
    let instr_addr = 0x8000;
    ddr.write_block(instr_addr, stream.len());

    // --- DMA activations into the banks, channel by channel: tile word
    //     `i` of the staged map is the 16 bytes at DDR address `16 i`.
    let mut banks = BankSet::new(&cfg);
    let geometry = BankGeometry { banks: AccelConfig::BANKS, capacity: cfg.bank_tiles };
    let mut dma = DmaController::new();
    let tile = |i: usize| tiled.as_tiles()[i].as_array().map(Sm8::to_bits);
    let mut plane = DataPlane { base: 0, tile: &tile, banks: &mut banks };
    let tiles_per_channel = in_layout.tile_rows * in_layout.tiles_x;
    for c in 0..4 {
        dma.run(
            &DmaDescriptor {
                direction: DmaDirection::DdrToBank,
                ddr_addr: c * tiles_per_channel * 16,
                bank: FmLayout::bank_of(c),
                bank_tile_index: in_layout.addr(c, 0, 0),
                tiles: tiles_per_channel,
            },
            &mut ddr,
            geometry,
            Some(&mut plane),
        )
        .expect("in-range");
    }
    assert_eq!(ddr.bytes_read(), (tiled.tile_count() * 16) as u64, "the whole map crossed System I");

    // --- Host programs the CSRs and rings the doorbell.
    host.launch(&mut bus, instr_addr as u32, 1).expect("bus ok");

    // --- Device side: fetch and decode the stream the CSRs point at,
    //     execute it, post DONE with the cycle count.
    let count = bus.read(ACCEL_CSR_BASE + AccelCsr::InstrCount as u32).expect("read count") as usize;
    let addr = bus.read(ACCEL_CSR_BASE + AccelCsr::InstrAddr as u32).expect("read addr") as usize;
    let len = count * zskip::accel::isa::INSTR_BYTES;
    ddr.read_block(addr, len);
    let decoded = Instruction::decode_stream(&stream[addr - instr_addr..][..len]).expect("well-formed stream");
    let outcome = cycle::run(&cfg, banks, &scratchpad, &decoded, &Default::default()).expect("executes");
    bus.write(ACCEL_CSR_BASE + AccelCsr::Status as u32, status::DONE).expect("post done");
    bus.write(ACCEL_CSR_BASE + AccelCsr::CyclesLo as u32, outcome.cycles as u32).expect("post cycles");

    // --- Host polls DONE, reads the cycle counter.
    assert_eq!(host.wait_quiescent(&mut bus, 100), Ok(status::DONE));
    let cycles = bus.read(ACCEL_CSR_BASE + AccelCsr::CyclesLo as u32).expect("read cycles");
    assert!(cycles > 0);

    // --- DMA results back to DDR (traffic: the bank-to-DDR descriptors
    //     move no bytes) and verify what the banks hold bit-exactly.
    let out_ddr = 0x4000;
    let tiles_per_channel = out_layout.tile_rows * out_layout.tiles_x;
    for c in 0..4 {
        dma.run(
            &DmaDescriptor {
                direction: DmaDirection::BankToDdr,
                ddr_addr: out_ddr + c * tiles_per_channel * 16,
                bank: FmLayout::bank_of(c),
                bank_tile_index: out_layout.addr(c, 0, 0),
                tiles: tiles_per_channel,
            },
            &mut ddr,
            geometry,
            None,
        )
        .expect("in-range");
    }
    let staged = tiled.tile_count() * 16 + stream.len();
    assert_eq!(ddr.bytes_written(), (staged + 4 * tiles_per_channel * 16) as u64);
    let want = conv2d_quant_dense(&input, &qw, 1, 1);
    let mut got = TiledFeatureMap::<Sm8>::zeros(out_shape);
    out_layout.load(&outcome.banks, &mut got, 0..out_layout.tile_rows);
    assert_eq!(got.to_tensor().cropped(8, 8), want, "result matches golden model");
}

/// A corrupted instruction stream is rejected at decode and surfaces as
/// the ERROR status bit — the illegal-instruction path.
#[test]
fn illegal_instruction_sets_error_status() {
    let mut bus = AvalonBus::new();
    bus.map("accel-csr", ACCEL_CSR_BASE, CSR_BLOCK_LEN, Box::new(CsrFile::new()));
    let mut host = HostCpu::new();
    let mut ddr = DdrModel::new(1 << 16);

    // Garbage opcode, staged at 0x100.
    let mut bad = [0u8; zskip::accel::isa::INSTR_BYTES];
    bad[0] = 0xff;
    ddr.write_block(0x100, bad.len());

    host.launch(&mut bus, 0x100, 1).expect("bus ok");
    let addr = bus.read(ACCEL_CSR_BASE + AccelCsr::InstrAddr as u32).expect("addr") as usize;
    ddr.read_block(addr, bad.len());
    let decode = Instruction::decode_stream(&bad[addr - 0x100..]);
    assert!(decode.is_err(), "garbage must not decode");
    bus.write(ACCEL_CSR_BASE + AccelCsr::Status as u32, status::ERROR).expect("post error");

    assert_eq!(host.wait_quiescent(&mut bus, 10), Err(HostError::Device(DeviceFault::ErrorBit)));
}
