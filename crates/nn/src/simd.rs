//! SIMD kernel tiers for the quantized (Sm8) datapath, with runtime
//! CPU-feature dispatch.
//!
//! The paper's datapath consumes one 16-value IFM tile per cycle per bank
//! and applies 4 weights per cycle in 8-bit sign+magnitude arithmetic
//! (§III-A). The software golden model historically emulated that one
//! scalar lane at a time; this module supplies the lane-parallel inner
//! loops — a 64-byte AVX-512 tier (`vpdpbusd`, four 8-bit products per
//! `i32` lane), a 16-wide AVX2 tier (one whole tile row per iteration)
//! and a 16-byte SSE2 tier — behind a [`KernelTier`] selector, with the
//! scalar loops kept as the bit-exactness oracle and unconditional
//! fallback.
//!
//! # Exactness
//!
//! Every kernel here is **bit-identical** to its scalar counterpart, not
//! merely close:
//!
//! * The weights are `Sm8` bytes and the patches unsigned bytes (`0..=255`,
//!   the GEMM's lowered input, see [`crate::gemm`]). `Sm8` values decode
//!   branch-free ([`Sm8::decode_i16`]); the AVX-512 tier decodes them to
//!   two's-complement `i8` in byte lanes in two operations, the AVX2 and
//!   SSE2 tiers to `i16` lanes (negative zero `0x80` to 0 everywhere; see
//!   `docs/KERNELS.md` "Weight decode").
//! * A product is at most `255 * 127 = 32385 < 2^15` in magnitude, so
//!   `pmaddwd`'s sum of two adjacent products and `vpdpbusd`'s sum of four
//!   both fit an `i32` lane.
//! * Accumulation is pure integer addition, which is associative and
//!   commutative, so any lane/order regrouping leaves the sum unchanged
//!   (`i32` lanes are flushed into `i64` before they can overflow; see
//!   [`DOT_FLUSH_STEPS`]).
//!
//! Property tests in `tests/kernel_tiers.rs` pin every reachable tier
//! against the scalar oracle over random shapes and densities.
//!
//! # Dispatch
//!
//! [`dispatch`] picks the widest tier the CPU supports, once, at first
//! use. The `ZSKIP_KERNEL` environment variable (`scalar` | `sse2` |
//! `avx2` | `avx512`) overrides the choice for testing and benchmarking; requesting
//! an unsupported or unknown tier falls back to the best supported one.
//! See `docs/KERNELS.md` for the full dispatch rules and how to add a
//! tier.

use std::sync::OnceLock;
use zskip_quant::Sm8;

/// Environment variable that overrides the dispatched kernel tier.
pub const KERNEL_ENV: &str = "ZSKIP_KERNEL";

/// A kernel implementation tier, ordered narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable scalar loops: the oracle and universal fallback.
    Scalar,
    /// 16-byte `std::arch::x86_64` SSE2 kernels (baseline on x86-64): two
    /// 8-lane halves per step.
    Sse2,
    /// 16-lane AVX2 kernels: one IFM tile row per iteration.
    Avx2,
    /// 64-byte AVX-512 kernels (F + BW + VNNI + DQ): four IFM tile rows
    /// per iteration, 16 `i32` lanes of four `u8 x s8` products each.
    Avx512,
    /// AVX-512 plus AMX-INT8 tiles: every AVX-512 kernel, except that a
    /// conv GEMM the tiles can hold exactly runs `tdpbusd` on them
    /// (`crate::gemm`, docs/KERNELS.md "AMX tiles"), and that a conv
    /// `dot_nt` would run reads its weights with the zeros taken out
    /// (docs/KERNELS.md "Compressed weight stream").
    Amx,
}

impl KernelTier {
    /// Every tier, narrowest first.
    pub const ALL: [KernelTier; 5] =
        [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2, KernelTier::Avx512, KernelTier::Amx];

    /// Stable lower-case name (the `ZSKIP_KERNEL` spelling).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Amx => "amx",
        }
    }

    /// Parses a `ZSKIP_KERNEL` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" => Some(KernelTier::Avx512),
            "amx" => Some(KernelTier::Amx),
            _ => None,
        }
    }

    /// The CPU features the tier's kernels are compiled for, by their
    /// `is_x86_feature_detected!` names: the tier runs where all of them
    /// are present.
    pub fn required_features(self) -> &'static [&'static str] {
        match self {
            KernelTier::Scalar => &[],
            KernelTier::Sse2 => &["sse2"],
            KernelTier::Avx2 => &["avx2"],
            // F for the 512-bit registers; BW for the weight decode's
            // byte sign mask `vpmovb2m` and byte-lane `vpsubb`; VNNI for
            // the `u8 x s8` dot `vpdpbusd`; DQ for the vector requantize's
            // 64-bit multiply `vpmullq` (every VNNI part has DQ). The
            // Box–Muller draw kernel (`boxmuller::avx512`) needs F alone.
            KernelTier::Avx512 => &["avx512f", "avx512bw", "avx512vnni", "avx512dq"],
            // The AVX-512 tier's features; VBMI2 for the compressed weight
            // stream's `vpcompressb` / `vpexpandb` and POPCNT for its group
            // lengths (every AMX part has both); and the tiles:
            // `amx-tile` also stands for the OS state a tile needs (XCR0
            // and the process's `XTILEDATA` permission, see `amx_state`).
            KernelTier::Amx => {
                &["avx512f", "avx512bw", "avx512vnni", "avx512dq", "avx512vbmi2", "popcnt", "amx-tile", "amx-int8"]
            }
        }
    }

    /// Whether the tier runs the AVX-512 kernels on this host: the
    /// AVX-512 tier, and the AMX tier, which is AVX-512 plus tiles.
    pub(crate) fn runs_avx512(self) -> bool {
        self >= KernelTier::Avx512 && self.is_supported()
    }

    /// The [`required_features`](Self::required_features) this machine
    /// lacks: empty exactly when the tier is supported.
    pub fn missing_features(self) -> Vec<&'static str> {
        self.required_features().iter().copied().filter(|f| !cpu_has(f)).collect()
    }

    /// Whether this machine can execute the tier: its
    /// [`missing_features`](Self::missing_features) are none, worked out
    /// once per process for every tier — the kernels ask on every call,
    /// some on every register block.
    pub fn is_supported(self) -> bool {
        static SUPPORTED: OnceLock<[bool; 5]> = OnceLock::new();
        SUPPORTED.get_or_init(|| KernelTier::ALL.map(|t| t.missing_features().is_empty()))[self as usize]
    }

    /// The tiers this machine can execute, narrowest first. Always
    /// contains at least [`KernelTier::Scalar`] — the set property tests
    /// iterate to cover "every dispatch tier reachable on the host".
    pub fn supported() -> Vec<KernelTier> {
        Self::ALL.iter().copied().filter(|t| t.is_supported()).collect()
    }

    /// The widest supported tier (the default dispatch choice).
    pub fn best_supported() -> KernelTier {
        Self::ALL.iter().rev().copied().find(|t| t.is_supported()).unwrap_or(KernelTier::Scalar)
    }
}

// `is_supported` indexes its table by discriminant: `ALL` must list the
// tiers in declaration order.
const _: () = {
    let mut i = 0;
    while i < KernelTier::ALL.len() {
        assert!(KernelTier::ALL[i] as usize == i);
        i += 1;
    }
};

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the CPU has `feature`, one of the names
/// [`KernelTier::required_features`] lists.
fn cpu_has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    match feature {
        "sse2" => is_x86_feature_detected!("sse2"),
        "avx2" => is_x86_feature_detected!("avx2"),
        "avx512f" => is_x86_feature_detected!("avx512f"),
        "avx512bw" => is_x86_feature_detected!("avx512bw"),
        "avx512dq" => is_x86_feature_detected!("avx512dq"),
        "avx512vnni" => is_x86_feature_detected!("avx512vnni"),
        "avx512vbmi2" => is_x86_feature_detected!("avx512vbmi2"),
        "popcnt" => is_x86_feature_detected!("popcnt"),
        "amx-tile" => amx_state().tile,
        "amx-int8" => amx_state().int8,
        _ => false,
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// What this host offers of AMX, probed once: `int8` is CPUID's AMX-INT8
/// bit; `tile` holds when CPUID has AMX-TILE, the OS saves the tile
/// state (XCR0 bits 17 and 18) and this process was granted it.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct AmxState {
    tile: bool,
    int8: bool,
}

/// [`AmxState`], cached: `effective` asks for it on every `dot_nt`, so
/// the CPUID, XGETBV and the permission syscall run once per process.
#[cfg(target_arch = "x86_64")]
fn amx_state() -> AmxState {
    static STATE: OnceLock<AmxState> = OnceLock::new();
    *STATE.get_or_init(|| {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        // Leaf 7 is read only where leaf 0 says it exists.
        let edx = if __cpuid(0).eax >= 7 { __cpuid_count(7, 0).edx } else { 0 };
        let (tile, int8) = (edx >> 24 & 1 == 1, edx >> 25 & 1 == 1);
        // XTILECFG and XTILEDATA, the two tile state components.
        const XCR0_TILE: u64 = 0b11 << 17;
        let tile = tile && is_x86_feature_detected!("xsave") && {
            // SAFETY: XGETBV exists where CPUID has OSXSAVE, which the
            // `xsave` feature check above implies.
            let xcr0 = unsafe { xgetbv0() };
            xcr0 & XCR0_TILE == XCR0_TILE
        } && request_tile_data();
        AmxState { tile, int8 }
    })
}

/// XCR0, the OS-enabled state components.
///
/// # Safety
/// The CPU must have XGETBV (CPUID's OSXSAVE bit).
#[cfg(target_arch = "x86_64")]
unsafe fn xgetbv0() -> u64 {
    let (lo, hi): (u32, u32);
    std::arch::asm!("xgetbv", in("ecx") 0u32, out("eax") lo, out("edx") hi, options(nomem, nostack, preserves_flags));
    u64::from(hi) << 32 | u64::from(lo)
}

/// Asks Linux for this process's permission to use the tile data state
/// (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`), which a
/// thread needs before its first tile instruction; the grant covers every
/// thread of the process. False on any error, and on every other OS.
#[cfg(target_arch = "x86_64")]
fn request_tile_data() -> bool {
    #[cfg(target_os = "linux")]
    {
        const SYS_ARCH_PRCTL: usize = 158;
        const ARCH_REQ_XCOMP_PERM: usize = 0x1023;
        const XFEATURE_XTILEDATA: usize = 18;
        let ret: isize;
        // SAFETY: `arch_prctl` with this code only records a permission
        // for the process; it reads and writes no memory of ours. The
        // kernel clobbers `rcx` and `r11` on `syscall`.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_ARCH_PRCTL as isize => ret,
                in("rdi") ARCH_REQ_XCOMP_PERM,
                in("rsi") XFEATURE_XTILEDATA,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// Pure dispatch policy: the widest supported tier, unless `requested`
/// names a supported tier. Unknown or unsupported requests fall back to
/// the default (the kernels must keep working on machines whose
/// environment carries a stale override).
pub fn select_tier(requested: Option<&str>) -> KernelTier {
    match requested.and_then(KernelTier::parse) {
        Some(t) if t.is_supported() => t,
        _ => KernelTier::best_supported(),
    }
}

/// The process-wide kernel tier: [`select_tier`] over `ZSKIP_KERNEL`,
/// decided once at first use and cached.
pub fn dispatch() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| select_tier(std::env::var(KERNEL_ENV).ok().as_deref()))
}

/// Clamps a tier to what the machine supports (scalar otherwise). Keeps
/// the explicit-tier kernel entry points safe to call with any tier value.
#[inline]
fn effective(tier: KernelTier) -> KernelTier {
    if tier.is_supported() {
        tier
    } else {
        KernelTier::Scalar
    }
}

/// Weight rows of one register block of [`dot_nt`]: the paper computes
/// "four OFM tiles to completion concurrently" against one fetched IFM
/// tile; here two filters share each loaded patch vector.
pub const DOT_MR: usize = 2;
/// Patch columns of one register block of [`dot_nt`]: each decoded weight
/// vector is multiplied against four output positions.
pub const DOT_NR: usize = 4;

/// The finished sums of one [`dot_nt`] register block: `sums[a][b]` is
/// weight row `i + a` against patch column `j + b`.
pub type DotSums = [[i64; DOT_NR]; DOT_MR];

/// Vector steps an `i32` lane of [`dot_nt`] absorbs between `i64` flushes.
/// The binding tier is AVX-512: a step is one `vpdpbusd`, which adds four
/// `u8 x s8` products of at most `255 * 127 = 32385` each to a lane, so
/// `4 * 32385 = 129540` a step; the reduction tail is one more step, and a
/// flush first sums the vector's 16 lanes in `i32` — all of which the
/// assertion below covers, so the kernel is exact at any reduction
/// length. The narrower tiers stay well inside the same bound: a step of
/// the SSE2 tier adds four such products (two `pmaddwd`) to each of 4
/// lanes, one of the AVX2 tier two products to each of 8.
///
/// `vpdpbusd` adds with a *wrapping* `i32` add. Its saturating sibling
/// `vpdpbusds` must never be used here: a clipped sum would depend on the
/// order the lanes were added in, so the tiers would agree only as long as
/// the bound does, with nothing left to show a broken one.
pub const DOT_FLUSH_STEPS: usize = 1024;
const _: () = assert!((DOT_FLUSH_STEPS as i64 + 1) * (4 * 255 * 127) * 16 <= i32::MAX as i64);

/// Output-stationary integer GEMM in dot-product ("NT") form, handing each
/// finished register block to its caller: calls `block(i, j, [mr, nr],
/// &sums)` with `sums[a][b] = Σ_r w[(i + a) * len + r] · p[(j + b) * len +
/// r]` for `a < mr`, `b < nr`, so that every weight row `i < rows` meets
/// every patch column `j < cols` in exactly one block, in no particular
/// order. A block is `DOT_MR x DOT_NR` except at the edges: the last row
/// block may be one row, and a column remainder runs one column at a time
/// (`nr == 1`, which is also an FC layer's every block). Sums outside
/// `mr x nr` are unspecified.
///
/// The callback is the epilogue: it is inlined into the tier's
/// `#[target_feature]` body, so a caller's straight-line requantize of
/// the block runs there, once per block, instead of once per output
/// behind a call. Both operands are contiguous along the reduction `r`,
/// which is where the vector lanes run, so lane occupancy does not depend
/// on how many columns there are — a deep conv layer's 2x2 plane (`cols =
/// 4`) and an FC layer (`cols = 1`) keep the lanes as busy as a 32x32
/// plane.
///
/// `w` holds raw `Sm8` weights, decoded on the fly; `p` holds unsigned
/// bytes, each multiplied as its value `0..=255`. Each block of sums is
/// accumulated to completion in `i32` vector registers (one `vpdpbusd` a
/// step on AVX-512, `pmaddwd` + `paddd` on the narrower tiers), flushed
/// into `i64` every [`DOT_FLUSH_STEPS`] steps. Zero weights are
/// multiplied like any other.
///
/// Bit-identical across tiers: products are exact and integer addition
/// reassociates.
///
/// # Panics
/// Panics unless `w.len() == rows * len` and `p.len() == cols * len`.
pub fn dot_nt(
    tier: KernelTier,
    w: &[Sm8],
    p: &[u8],
    [rows, cols, len]: [usize; 3],
    block: impl FnMut(usize, usize, [usize; 2], &DotSums),
) {
    assert_eq!(w.len(), rows * len, "weight matrix is not rows x len");
    assert_eq!(p.len(), cols * len, "patch matrix is not cols x len");
    // SAFETY: the asserts above are the bodies' only requirement on the
    // slices; `effective` verified the tier's features on this CPU.
    unsafe {
        match effective(tier) {
            KernelTier::Scalar => dot_scalar::dot_nt(w, p, rows, cols, len, block),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => x86::dot_sse2::dot_nt(w, p, rows, cols, len, block),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => x86::dot_avx2::dot_nt(w, p, rows, cols, len, block),
            // The tiles run only a conv GEMM (`crate::gemm`); everything
            // else on the AMX tier is the AVX-512 tier's.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 | KernelTier::Amx => x86::dot_avx512::dot_nt(w, p, rows, cols, len, block),
            #[cfg(not(target_arch = "x86_64"))]
            _ => dot_scalar::dot_nt(w, p, rows, cols, len, block),
        }
    }
}

/// Stamps out one tier's [`dot_nt`] body as a module: the register block
/// and the loops around it, all under the tier's `#[target_feature]` so
/// the block inlines and its accumulators never leave registers. A tier
/// steps `LANES` reduction values at a time and supplies six operations
/// on its vector types: `zero()`, `load_w(*const Sm8)` (decoding `LANES`
/// weights), `load_p(*const u8)` (`LANES` patch bytes, as unsigned
/// values), `madd_acc(acc, w, p)` (`acc` plus the products of each `i32`
/// lane's share of `w` and `p`, in wrapping `i32` lanes), `hsum(acc) ->
/// i32` and `hsum_row([acc; DOT_NR]) -> [i32; DOT_NR]` (the `hsum` of
/// each, done jointly: a full block's row of accumulators is reduced in
/// one transpose-and-add tree).
macro_rules! dot_nt_tier {
    ($(#[$feature:meta])? $name:ident, $lanes:literal, $ops:ident) => {
        pub(super) mod $name {
            use super::$ops::{hsum, hsum_row, load_p, load_w, madd_acc, zero};
            use crate::simd::{DotSums, DOT_FLUSH_STEPS, DOT_MR, DOT_NR};
            use zskip_quant::Sm8;

            const LANES: usize = $lanes;

            /// Adds the sums of one `MR x NR` block into the top-left
            /// corner of `sums`: weight rows at `w`, `w + len`, ...; patch
            /// columns at `p`, `p + len`, ...; `p_tail[j]` is column `j`'s
            /// last `len % LANES` values, zero-padded.
            ///
            /// # Safety
            /// Every row and column must be readable for `len` elements
            /// — the last row for `LANES` elements from its tail on when
            /// `w_tail_in_place` — and the CPU must support the tier.
            #[inline]
            $(#[$feature])?
            unsafe fn block<const MR: usize, const NR: usize>(
                w: *const Sm8,
                p: *const u8,
                len: usize,
                p_tail: &[[u8; LANES]; DOT_NR],
                w_tail_in_place: bool,
                sums: &mut DotSums,
            ) {
                let full = len / LANES * LANES;
                let mut r = 0;
                loop {
                    let end = full.min(r + DOT_FLUSH_STEPS * LANES);
                    let mut acc = [[zero(); NR]; MR];
                    while r < end {
                        for j in 0..NR {
                            let pv = load_p(p.add(j * len + r));
                            for (i, acc) in acc.iter_mut().enumerate() {
                                acc[j] = madd_acc(acc[j], load_w(w.add(i * len + r)), pv);
                            }
                        }
                        r += LANES;
                    }
                    let last = r == full;
                    if last && full < len {
                        // The reduction tail, as one more step against
                        // zero-padded patch values: a zero lane adds
                        // nothing whatever weight it meets, so the weight
                        // vector may run on into the next row — or, where
                        // that would leave the matrix, be a padded copy.
                        for (i, acc) in acc.iter_mut().enumerate() {
                            let mut w_tail = [Sm8::ZERO; LANES];
                            let wv = if w_tail_in_place {
                                load_w(w.add(i * len + full))
                            } else {
                                std::ptr::copy_nonoverlapping(w.add(i * len + full), w_tail.as_mut_ptr(), len - full);
                                load_w(w_tail.as_ptr())
                            };
                            for (acc, p_tail) in acc.iter_mut().zip(p_tail) {
                                *acc = madd_acc(*acc, wv, load_p(p_tail.as_ptr()));
                            }
                        }
                    }
                    for (sums, acc) in sums.iter_mut().zip(acc) {
                        if NR == DOT_NR {
                            let row = hsum_row(std::array::from_fn(|j| acc[j]));
                            for (sum, row) in sums.iter_mut().zip(row) {
                                *sum += row as i64;
                            }
                        } else {
                            for (sum, acc) in sums.iter_mut().zip(acc) {
                                *sum += hsum(acc) as i64;
                            }
                        }
                    }
                    if last {
                        return;
                    }
                }
            }

            /// The tier's [`dot_nt`](crate::simd::dot_nt) body. Column
            /// blocks are the outer loop, so a block of patch columns stays
            /// in L1 while the weight rows stream past it once; a column
            /// remainder runs one column at a time. Each block's shape is
            /// a constant where `epilogue` is called, so the caller's
            /// per-block code is specialized to it.
            ///
            /// # Safety
            /// `w.len() == rows * len`, `p.len() == cols * len`, and the
            /// CPU must support the tier.
            $(#[$feature])?
            pub unsafe fn dot_nt(
                w: &[Sm8],
                p: &[u8],
                rows: usize,
                cols: usize,
                len: usize,
                mut epilogue: impl FnMut(usize, usize, [usize; 2], &DotSums),
            ) {
                let full = len / LANES * LANES;
                let mut j = 0;
                while j < cols {
                    let nr = if cols - j >= DOT_NR { DOT_NR } else { 1 };
                    let pj = p.as_ptr().add(j * len);
                    let mut p_tail = [[0u8; LANES]; DOT_NR];
                    for (c, tail) in p_tail.iter_mut().enumerate().take(nr) {
                        std::ptr::copy_nonoverlapping(pj.add(c * len + full), tail.as_mut_ptr(), len - full);
                    }
                    let mut i = 0;
                    while i < rows {
                        let mr = DOT_MR.min(rows - i);
                        let wi = w.as_ptr().add(i * len);
                        // Whether a full vector at the block's last
                        // tail still ends inside `w`.
                        let in_place = (i + mr - 1) * len + full + LANES <= w.len();
                        let mut sums = [[0i64; DOT_NR]; DOT_MR];
                        match (mr, nr) {
                            (DOT_MR, DOT_NR) => {
                                block::<DOT_MR, DOT_NR>(wi, pj, len, &p_tail, in_place, &mut sums);
                                epilogue(i, j, [DOT_MR, DOT_NR], &sums);
                            }
                            (DOT_MR, _) => {
                                block::<DOT_MR, 1>(wi, pj, len, &p_tail, in_place, &mut sums);
                                epilogue(i, j, [DOT_MR, 1], &sums);
                            }
                            (_, DOT_NR) => {
                                block::<1, DOT_NR>(wi, pj, len, &p_tail, in_place, &mut sums);
                                epilogue(i, j, [1, DOT_NR], &sums);
                            }
                            _ => {
                                block::<1, 1>(wi, pj, len, &p_tail, in_place, &mut sums);
                                epilogue(i, j, [1, 1], &sums);
                            }
                        }
                        i += mr;
                    }
                    j += nr;
                }
            }
        }
    };
}

/// The portable tier of [`dot_nt`]: one "lane", so a step is one product.
mod scalar_ops {
    use zskip_quant::Sm8;

    #[inline(always)]
    pub fn zero() -> i32 {
        0
    }
    /// # Safety
    /// `w` must be readable.
    #[inline(always)]
    pub unsafe fn load_w(w: *const Sm8) -> i32 {
        (*w).decode_i16() as i32
    }
    /// # Safety
    /// `p` must be readable.
    #[inline(always)]
    pub unsafe fn load_p(p: *const u8) -> i32 {
        *p as i32
    }
    #[inline(always)]
    pub fn madd_acc(acc: i32, w: i32, p: i32) -> i32 {
        acc + w * p
    }
    #[inline(always)]
    pub fn hsum(acc: i32) -> i32 {
        acc
    }
    #[inline(always)]
    pub fn hsum_row(acc: [i32; crate::simd::DOT_NR]) -> [i32; crate::simd::DOT_NR] {
        acc
    }
}

dot_nt_tier!(dot_scalar, 1, scalar_ops);

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! `std::arch::x86_64` kernel bodies. Every function carries a
    //! `#[target_feature]` attribute; callers must have verified the
    //! feature via `KernelTier::is_supported` (the `effective` clamp in
    //! the public wrappers does this).
    //!
    //! `Sm8` is `#[repr(transparent)]` over `u8`, so an `&[Sm8]` is
    //! byte-loadable directly into vector registers.

    use super::Sm8;
    use std::arch::x86_64::*;

    /// Sm8 bytes decoded to two's-complement `i8` lanes: read as `i8`, a
    /// sign-set byte is `mag - 128`, and its value `-mag` is `-128 - x`,
    /// which takes negative zero to 0. Two operations for 64 values; the
    /// weight loads and the max-pool (`crate::pool`) share it.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(crate) unsafe fn decode_i8(x: __m512i) -> __m512i {
        _mm512_mask_sub_epi8(x, _mm512_movepi8_mask(x), _mm512_set1_epi8(-128), x)
    }

    /// The inverse for `i16` lanes in -127..=127: each lane's Sm8 bit
    /// pattern (magnitude, plus 0x80 where negative, so a zero is `+0`)
    /// in its low byte, for `_mm512_mask_cvtepi16_storeu_epi8` to narrow
    /// to the output bytes. The max-pool and the residual join
    /// (`crate::eltwise`) share it.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(crate) unsafe fn encode_i16(v: __m512i) -> __m512i {
        let mag = _mm512_abs_epi16(v);
        _mm512_mask_add_epi16(mag, _mm512_movepi16_mask(v), mag, _mm512_set1_epi16(0x80))
    }

    /// The byte lanes `0..n` of a 64-byte register (all of them from 64
    /// on): the mask of a step's masked loads and stores.
    #[inline]
    pub(crate) fn first(n: usize) -> __mmask64 {
        if n >= 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }

    /// Sum of the four `i32` lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn hsum_i32x4(v: __m128i) -> i32 {
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
        _mm_cvtsi128_si32(_mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v)))
    }

    /// `[Σa, Σb, Σc, Σd]` of four vectors' `i32` lanes, in each of the two
    /// 128-bit lanes separately: a 4x4 transpose folded into its adds —
    /// six shuffles and three adds for four sums.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_add_x256([a, b, c, d]: [__m256i; 4]) -> __m256i {
        let ab = _mm256_add_epi32(_mm256_unpacklo_epi32(a, b), _mm256_unpackhi_epi32(a, b));
        let cd = _mm256_add_epi32(_mm256_unpacklo_epi32(c, d), _mm256_unpackhi_epi32(c, d));
        _mm256_add_epi32(_mm256_unpacklo_epi64(ab, cd), _mm256_unpackhi_epi64(ab, cd))
    }

    /// Same, in each of the four 128-bit lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_add_x512([a, b, c, d]: [__m512i; 4]) -> __m512i {
        let ab = _mm512_add_epi32(_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b));
        let cd = _mm512_add_epi32(_mm512_unpacklo_epi32(c, d), _mm512_unpackhi_epi32(c, d));
        _mm512_add_epi32(_mm512_unpacklo_epi64(ab, cd), _mm512_unpackhi_epi64(ab, cd))
    }

    /// The four `i32` lanes as an array.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn lanes_i32x4(v: __m128i) -> [i32; 4] {
        std::mem::transmute(v)
    }

    /// The 16-byte tier of `dot_nt`: a step is one 16-byte load of each
    /// operand, widened to two vectors of 16-bit lanes. The weights are
    /// decoded in byte lanes before they are widened, so one decode serves
    /// 16 of them.
    mod sse2_ops {
        use super::*;

        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn zero() -> __m128i {
            _mm_setzero_si128()
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn load_w(w: *const Sm8) -> [__m128i; 2] {
            // In byte lanes first: the magnitude less twice what a
            // sign-set byte exceeds 0x80 by, so `-mag`, negative zero 0;
            // then each value sign-extended into its 16-bit lane.
            let b = _mm_loadu_si128(w as *const __m128i);
            let over = _mm_subs_epu8(b, _mm_set1_epi8(-128));
            let v = _mm_sub_epi8(_mm_sub_epi8(_mm_and_si128(b, _mm_set1_epi8(0x7f)), over), over);
            let sign = _mm_cmpgt_epi8(_mm_setzero_si128(), v);
            [_mm_unpacklo_epi8(v, sign), _mm_unpackhi_epi8(v, sign)]
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn load_p(p: *const u8) -> [__m128i; 2] {
            let b = _mm_loadu_si128(p as *const __m128i);
            [_mm_unpacklo_epi8(b, _mm_setzero_si128()), _mm_unpackhi_epi8(b, _mm_setzero_si128())]
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn madd_acc(acc: __m128i, [w0, w1]: [__m128i; 2], [p0, p1]: [__m128i; 2]) -> __m128i {
            _mm_add_epi32(acc, _mm_add_epi32(_mm_madd_epi16(w0, p0), _mm_madd_epi16(w1, p1)))
        }
        pub(super) use super::hsum_i32x4 as hsum;
        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn hsum_row(acc: [__m128i; 4]) -> [i32; 4] {
            // One at a time: the joint tree of the wider tiers runs this
            // tier's GEMM at half speed (16 registers).
            acc.map(|v| hsum(v))
        }
    }

    /// The 16-lane tier of `dot_nt`.
    mod avx2_ops {
        use super::*;

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn load_w(w: *const Sm8) -> __m256i {
            // Sign-extended, a byte is negative exactly when its sign bit
            // is set, so `vpsignw` by it negates the magnitude (and keeps
            // negative zero's zero magnitude zero).
            let x = _mm256_cvtepi8_epi16(_mm_loadu_si128(w as *const __m128i));
            _mm256_sign_epi16(_mm256_and_si256(x, _mm256_set1_epi16(0x7f)), x)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn load_p(p: *const u8) -> __m256i {
            _mm256_cvtepu8_epi16(_mm_loadu_si128(p as *const __m128i))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn madd_acc(acc: __m256i, w: __m256i, p: __m256i) -> __m256i {
            _mm256_add_epi32(acc, _mm256_madd_epi16(w, p))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn hsum(v: __m256i) -> i32 {
            hsum_i32x4(_mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn hsum_row(acc: [__m256i; 4]) -> [i32; 4] {
            let v = transpose_add_x256(acc);
            lanes_i32x4(_mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)))
        }
    }

    /// The 64-byte tier of `dot_nt`: 16 `i32` lanes of four `u8 x s8`
    /// products each. The compressed-row body (`crate::gemm`) steps with
    /// the same operations.
    pub(crate) mod avx512_ops {
        use super::*;

        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub unsafe fn zero() -> __m512i {
            _mm512_setzero_si512()
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub unsafe fn load_w(w: *const Sm8) -> __m512i {
            decode_i8(_mm512_loadu_si512(w as *const _))
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub unsafe fn load_p(p: *const u8) -> __m512i {
            _mm512_loadu_si512(p as *const _)
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub unsafe fn madd_acc(acc: __m512i, w: __m512i, p: __m512i) -> __m512i {
            // Unsigned patch bytes first, signed weights second. Wrapping,
            // never the saturating `_mm512_dpbusds_epi32`: see
            // `DOT_FLUSH_STEPS`.
            _mm512_dpbusd_epi32(acc, p, w)
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub unsafe fn hsum(v: __m512i) -> i32 {
            _mm512_reduce_add_epi32(v)
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub unsafe fn hsum_row(acc: [__m512i; 4]) -> [i32; 4] {
            let v = transpose_add_x512(acc);
            let v = _mm256_add_epi32(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
            lanes_i32x4(_mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)))
        }
    }

    dot_nt_tier!(#[target_feature(enable = "sse2")] dot_sse2, 16, sse2_ops);
    dot_nt_tier!(#[target_feature(enable = "avx2")] dot_avx2, 16, avx2_ops);
    dot_nt_tier!(#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")] dot_avx512, 64, avx512_ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tier_names_round_trip() {
        for t in KernelTier::ALL {
            assert_eq!(KernelTier::parse(t.name()), Some(t));
            assert_eq!(KernelTier::parse(&t.name().to_uppercase()), Some(t));
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(KernelTier::parse("avx512"), Some(KernelTier::Avx512));
        assert_eq!(KernelTier::parse("avx999"), None);
        assert_eq!(KernelTier::parse(""), None);
    }

    #[test]
    fn scalar_is_always_supported_and_listed_first() {
        assert!(KernelTier::Scalar.is_supported());
        let sup = KernelTier::supported();
        assert_eq!(sup[0], KernelTier::Scalar);
        assert!(sup.contains(&KernelTier::best_supported()));
    }

    #[test]
    fn a_tier_is_supported_exactly_when_no_required_feature_is_missing() {
        assert!(KernelTier::Scalar.required_features().is_empty());
        for t in KernelTier::ALL {
            assert_eq!(t.missing_features().is_empty(), t.is_supported(), "tier {t}");
            assert!(t.missing_features().iter().all(|f| t.required_features().contains(f)), "tier {t}");
        }
    }

    #[test]
    fn select_tier_honors_supported_requests_and_ignores_junk() {
        assert_eq!(select_tier(Some("scalar")), KernelTier::Scalar);
        assert_eq!(select_tier(None), KernelTier::best_supported());
        assert_eq!(select_tier(Some("definitely-not-a-tier")), KernelTier::best_supported());
        for t in KernelTier::supported() {
            assert_eq!(select_tier(Some(t.name())), t);
        }
    }

    #[test]
    fn dispatch_is_stable_and_supported() {
        let a = dispatch();
        assert!(a.is_supported());
        assert_eq!(dispatch(), a, "dispatch must be cached");
    }

    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = zskip_fault::SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    fn sm8_vec(seed: u64, n: usize) -> Vec<Sm8> {
        bytes(seed, n).into_iter().map(Sm8::from_bits).collect()
    }

    /// [`dot_nt`] collected into a `rows x cols` matrix, checking that
    /// every element is handed over in exactly one block, and that blocks
    /// have the shapes the contract allows.
    fn dot_matrix(tier: KernelTier, w: &[Sm8], p: &[u8], dims: [usize; 3]) -> Vec<i64> {
        let [rows, cols, _] = dims;
        let mut out = vec![None; rows * cols];
        dot_nt(tier, w, p, dims, |i, j, [mr, nr], sums| {
            assert!((1..=DOT_MR).contains(&mr) && (nr == DOT_NR || nr == 1), "block {mr} x {nr}");
            for (a, sums) in sums.iter().enumerate().take(mr) {
                for (b, &sum) in sums.iter().enumerate().take(nr) {
                    let (i, j) = (i + a, j + b);
                    assert!(out[i * cols + j].replace(sum).is_none(), "({i}, {j}) handed over twice");
                }
            }
        });
        out.into_iter().map(|v| v.expect("every element emitted")).collect()
    }

    /// The independent oracle: sign+magnitude weight times unsigned patch
    /// byte, one product at a time.
    fn dot_oracle(w: &[Sm8], p: &[u8], [rows, cols, len]: [usize; 3]) -> Vec<i64> {
        let mut out = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                let (w, p) = (&w[i * len..][..len], &p[j * len..][..len]);
                out.push(w.iter().zip(p).map(|(w, &p)| w.to_i32() as i64 * p as i64).sum());
            }
        }
        out
    }

    #[test]
    fn dot_tiers_match_the_oracle_at_every_length_and_bit_pattern() {
        // 3 rows = a full row block + a remainder row; 6 columns = a full
        // column block + two single columns. Consecutive bit patterns, so
        // every one of the 256 weight bytes (negative zero 0x80 included)
        // and patch bytes meets every lane position as the length sweeps
        // every lane boundary and tail.
        for len in 0..=200usize {
            let dims = [3, 6, len];
            let w: Vec<Sm8> = (0..3 * len).map(|i| Sm8::from_bits((i * 7 + len) as u8)).collect();
            let p: Vec<u8> = (0..6 * len).map(|i| (i * 13 + 5 * len + 0x80) as u8).collect();
            let want = dot_oracle(&w, &p, dims);
            for tier in KernelTier::supported() {
                assert_eq!(dot_matrix(tier, &w, &p, dims), want, "tier {tier}, len {len}");
            }
        }
    }

    #[test]
    fn dot_tiers_are_exact_on_every_weight_and_patch_byte_pair_in_every_lane() {
        // Row `i` is one weight byte throughout, column `j` one patch
        // byte, so every one of the 256 x 256 pairs meets at every
        // reduction position. 127 = 2 * 64 - 1 positions fill one whole
        // vector of every tier and then the longest tail after it, so each
        // pair lands in every lane of a full step and every lane of a tail
        // step. The rows run in both orders, so every weight byte is also
        // read from the last row block, whose tail vector is copied out
        // instead of loaded in place.
        let len = 127;
        let p: Vec<u8> = (0..=255u8).flat_map(|b| vec![b; len]).collect();
        for order in [0u8, 255] {
            let w: Vec<Sm8> = (0..=255u8).flat_map(|b| vec![Sm8::from_bits(b ^ order); len]).collect();
            let want: Vec<i64> = (0..=255u8)
                .flat_map(|w| (0..=255).map(move |p| Sm8::from_bits(w ^ order).to_i32() as i64 * p * len as i64))
                .collect();
            for tier in KernelTier::supported() {
                assert!(dot_matrix(tier, &w, &p, [256, 256, len]) == want, "tier {tier}, row order {order}");
            }
        }
    }

    #[test]
    fn dot_tiers_match_the_oracle_at_every_block_remainder() {
        for rows in 0..=2 * DOT_MR + 1 {
            for cols in 0..=2 * DOT_NR + 1 {
                let dims = [rows, cols, 37];
                let (w, p) = (sm8_vec(rows as u64, rows * 37), bytes(100 + cols as u64, cols * 37));
                let want = dot_oracle(&w, &p, dims);
                for tier in KernelTier::supported() {
                    assert_eq!(dot_matrix(tier, &w, &p, dims), want, "tier {tier}, {rows} x {cols}");
                }
            }
        }
    }

    #[test]
    fn dot_is_exact_at_the_worst_case_around_the_i32_flush() {
        // Every product +-127 * 255 — the most an `i32` lane can gain per
        // product — at reduction lengths just below, at and above each
        // tier's flush point (with the longest tail), two flushes deep,
        // and at VGG's fc6 length for a 224x224 input.
        let mut lens = vec![25_088];
        for lanes in [1, 8, 16, 64] {
            let chunk = DOT_FLUSH_STEPS * lanes;
            lens.extend([chunk - 1, chunk, chunk + 1, chunk + lanes - 1, 2 * chunk + 1]);
        }
        for len in lens {
            let dims = [DOT_MR + 1, DOT_NR + 1, len];
            let w: Vec<Sm8> = (0..dims[0]).flat_map(|i| vec![if i == 1 { Sm8::MIN } else { Sm8::MAX }; len]).collect();
            let p = vec![255; dims[1] * len];
            let want: Vec<i64> = (0..dims[0])
                .flat_map(|i| vec![if i == 1 { -127 * 255 } else { 127 * 255 } * len as i64; dims[1]])
                .collect();
            for tier in KernelTier::supported() {
                assert_eq!(dot_matrix(tier, &w, &p, dims), want, "tier {tier}, len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dot_tiers_match_the_oracle_on_random_shapes(
            rows in 0usize..6,
            cols in 0usize..10,
            len in 0usize..70,
            seed in 0u64..1000,
        ) {
            let dims = [rows, cols, len];
            let (w, p) = (sm8_vec(seed, rows * len), bytes(seed + 1000, cols * len));
            let want = dot_oracle(&w, &p, dims);
            for tier in KernelTier::supported() {
                prop_assert_eq!(dot_matrix(tier, &w, &p, dims), &want[..], "tier {}", tier);
            }
        }
    }

    #[test]
    fn unsupported_tier_falls_back_to_scalar_result() {
        // `effective` clamps: calling any tier value is safe and exact,
        // even one the host lacks (regression guard for non-x86 hosts).
        let dims = [3, 5, 37];
        let (w, p) = (sm8_vec(3, 3 * 37), bytes(4, 5 * 37));
        let want = dot_matrix(KernelTier::Scalar, &w, &p, dims);
        for tier in KernelTier::ALL {
            assert_eq!(dot_matrix(tier, &w, &p, dims), want, "tier {tier}");
        }
    }
}
