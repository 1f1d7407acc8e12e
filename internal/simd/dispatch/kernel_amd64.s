// amd64 AVX2 backend: the PQ Fast Scan lower-bound pipeline of §4.5 on
// real vector registers. One iteration processes TWO 16-lane blocks of
// the same group: the group's 16-entry small table is broadcast into
// both 128-bit lanes of a ymm register (VBROADCASTI128), so a single
// VPSHUFB performs 32 table lookups — vpshufb shuffles each 128-bit
// lane independently, which is exactly the two-blocks-per-register
// layout FAISS IndexPQFastScan and ScaNN adopted from this paper.
//
// Accumulation is VPADDUSB (unsigned saturating at 255) followed by one
// final VPMINUB against 127: for non-negative addends this equals the
// SWAR engine's per-step saturation at 127 (min(sum,127) both ways, see
// DESIGN.md §12), so the stored lower-bound bytes are bit-identical to
// every other backend.
//
// The prune decision of Figure 6 closes the pipeline in registers, as
// in §4.5: VPCMPGTB of the accumulator against the broadcast threshold
// (signed; the accumulator is in [0,127]) and VPMOVMSKB store one
// 16-bit pruned mask per block beside the bytes.

#include "textflag.h"

DATA mask0f<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA mask0f<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA mask0f<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA mask0f<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL mask0f<>(SB), RODATA|NOPTR, $32

DATA mask7f<>+0(SB)/8, $0x7f7f7f7f7f7f7f7f
DATA mask7f<>+8(SB)/8, $0x7f7f7f7f7f7f7f7f
DATA mask7f<>+16(SB)/8, $0x7f7f7f7f7f7f7f7f
DATA mask7f<>+24(SB)/8, $0x7f7f7f7f7f7f7f7f
GLOBL mask7f<>(SB), RODATA|NOPTR, $32

// func accumulateAVX2(blocks *byte, blockBytes, c, nblocks int, thr int8, tables *byte, dst *byte, masks *uint16)
TEXT ·accumulateAVX2(SB), NOSPLIT, $0-64
	MOVQ blocks+0(FP), SI
	MOVQ blockBytes+8(FP), BX
	MOVQ c+16(FP), CX
	MOVQ nblocks+24(FP), R8
	MOVQ tables+40(FP), DX
	MOVQ dst+48(FP), DI
	MOVQ masks+56(FP), R12

	VMOVDQU      mask0f<>(SB), Y10
	VMOVDQU      mask7f<>(SB), Y11
	VPBROADCASTB thr+32(FP), Y12 // prune threshold in every lane

	MOVQ $8, R14
	SUBQ CX, R14               // R14 = 8 - c (ungrouped components)

pairloop:
	CMPQ R8, $2
	JL   tail

	// Two blocks per iteration: A at SI, B at SI+blockBytes.
	MOVQ  DX, R9               // table cursor
	MOVQ  SI, R10              // block A cursor
	LEAQ  (SI)(BX*1), R13      // block B cursor
	VPXOR Y0, Y0, Y0           // 32-lane accumulator
	MOVQ  CX, R11
	TESTQ R11, R11
	JZ    pair_ungrouped

pair_grouped:
	// Grouped component: 8 packed nibble bytes per block. Unpack the
	// 16 packed bytes (A|B) into per-block lane indexes: lane 2k is
	// byte k's low nibble, lane 2k+1 its high nibble (layout.packLane),
	// which is exactly an interleave of the nibble vectors.
	VBROADCASTI128 (R9), Y1    // small table in both lanes
	VMOVQ      (R10), X2
	VPINSRQ    $1, (R13), X2, X2
	VPAND      X10, X2, X3     // low nibbles
	VPSRLW     $4, X2, X4
	VPAND      X10, X4, X4     // high nibbles
	VPUNPCKLBW X4, X3, X5      // block A lane indexes 0..15
	VPUNPCKHBW X4, X3, X6      // block B lane indexes 0..15
	VINSERTI128 $1, X6, Y5, Y7
	VPSHUFB    Y7, Y1, Y8      // 32 lookups in one shuffle
	VPADDUSB   Y8, Y0, Y0
	ADDQ       $16, R9
	ADDQ       $8, R10
	ADDQ       $8, R13
	DECQ       R11
	JNZ        pair_grouped

pair_ungrouped:
	MOVQ  R14, R11
	TESTQ R11, R11
	JZ    pair_done

pair_ungrouped_loop:
	// Ungrouped component: 16 full code bytes per block, indexed by
	// their 4 most significant bits against the minimum table.
	VBROADCASTI128 (R9), Y1
	VMOVDQU     (R10), X2
	VINSERTI128 $1, (R13), Y2, Y2
	VPSRLW      $4, Y2, Y3
	VPAND       Y10, Y3, Y3    // high nibbles
	VPSHUFB     Y3, Y1, Y8
	VPADDUSB    Y8, Y0, Y0
	ADDQ        $16, R9
	ADDQ        $16, R10
	ADDQ        $16, R13
	DECQ        R11
	JNZ         pair_ungrouped_loop

pair_done:
	VPMINUB   Y11, Y0, Y0      // saturate the quantized range at 127
	VMOVDQU   Y0, (DI)
	VPCMPGTB  Y12, Y0, Y9      // lanes above the threshold are pruned
	VPMOVMSKB Y9, AX           // block A in bits 0-15, block B in 16-31
	MOVL      AX, (R12)
	ADDQ      $32, DI
	ADDQ      $4, R12
	LEAQ    (SI)(BX*2), SI
	SUBQ    $2, R8
	JMP     pairloop

tail:
	TESTQ R8, R8
	JZ    done

	// Odd final block: same pipeline at xmm width.
	MOVQ  DX, R9
	MOVQ  SI, R10
	VPXOR X0, X0, X0
	MOVQ  CX, R11
	TESTQ R11, R11
	JZ    tail_ungrouped

tail_grouped:
	VMOVDQU    (R9), X1
	VMOVQ      (R10), X2
	VPAND      X10, X2, X3
	VPSRLW     $4, X2, X4
	VPAND      X10, X4, X4
	VPUNPCKLBW X4, X3, X5
	VPSHUFB    X5, X1, X8
	VPADDUSB   X8, X0, X0
	ADDQ       $16, R9
	ADDQ       $8, R10
	DECQ       R11
	JNZ        tail_grouped

tail_ungrouped:
	MOVQ  R14, R11
	TESTQ R11, R11
	JZ    tail_done

tail_ungrouped_loop:
	VMOVDQU  (R9), X1
	VMOVDQU  (R10), X2
	VPSRLW   $4, X2, X3
	VPAND    X10, X3, X3
	VPSHUFB  X3, X1, X8
	VPADDUSB X8, X0, X0
	ADDQ     $16, R9
	ADDQ     $16, R10
	DECQ     R11
	JNZ      tail_ungrouped_loop

tail_done:
	VPMINUB   X11, X0, X0
	VMOVDQU   X0, (DI)
	VPCMPGTB  X12, X0, X9
	VPMOVMSKB X9, AX
	MOVW      AX, (R12)

done:
	VZEROUPPER
	RET

// func innerProductsAVX2(x *float32, sd int, cb *float32, k int, dst *float32)
//
// dst[i] = ⟨x, cb row i⟩ for the k rows of sd floats in cb, in the op
// order of the Go body (quantizer.innerProductsRow): per centroid four
// accumulators p0..p3, zeroed, p_r += x[d+r]·row[d+r] for d = 0, 4, 8, …
// as one rounded multiply then one rounded add (VMULPS, VADDPS; never an
// FMA), and finally (p0+p1)+(p2+p3). Lane r of a centroid's 128-bit
// half is its p_r. Eight centroids are in flight: Y0..Y3 hold centroids
// i+r in their low halves and i+4+r in their high halves, so the two
// VHADDPS reduce them straight into dst order — the first forms p0+p1
// and p2+p3 of two accumulators side by side, the second adds those
// pairs. sd is a multiple of 4 (≥ 4) and k a multiple of 8.
TEXT ·innerProductsAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ sd+8(FP), BX
	MOVQ cb+16(FP), R8
	MOVQ k+24(FP), CX
	MOVQ dst+32(FP), DI

	MOVQ BX, R9
	SHLQ $2, R9                // row stride in bytes
	LEAQ (R9)(R9*2), R11       // 3 rows
	LEAQ (R9)(R9*1), R10       // 2 rows

centroids:
	TESTQ CX, CX
	JZ    done
	MOVQ  R8, R13              // rows i..i+3 at (R13), +R9, +2·R9, +R11
	LEAQ  (R8)(R9*4), R12      // rows i+4..i+7 likewise
	MOVQ  SI, R14              // x cursor
	MOVQ  BX, DX               // dimensions left
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dims:
	VBROADCASTF128 (R14), Y4   // x[d:d+4] in both halves
	VMOVUPS     (R13), X5
	VINSERTF128 $1, (R12), Y5, Y5
	VMULPS      Y4, Y5, Y5
	VADDPS      Y5, Y0, Y0
	VMOVUPS     (R13)(R9*1), X6
	VINSERTF128 $1, (R12)(R9*1), Y6, Y6
	VMULPS      Y4, Y6, Y6
	VADDPS      Y6, Y1, Y1
	VMOVUPS     (R13)(R10*1), X7
	VINSERTF128 $1, (R12)(R10*1), Y7, Y7
	VMULPS      Y4, Y7, Y7
	VADDPS      Y7, Y2, Y2
	VMOVUPS     (R13)(R11*1), X8
	VINSERTF128 $1, (R12)(R11*1), Y8, Y8
	VMULPS      Y4, Y8, Y8
	VADDPS      Y8, Y3, Y3
	ADDQ        $16, R13
	ADDQ        $16, R12
	ADDQ        $16, R14
	SUBQ        $4, DX
	JNZ         dims

	VHADDPS Y1, Y0, Y0         // per half: i: p0+p1, p2+p3; i+1: p0+p1, p2+p3
	VHADDPS Y3, Y2, Y2         // the same for i+2, i+3
	VHADDPS Y2, Y0, Y0         // (p0+p1)+(p2+p3) of i..i+3 | i+4..i+7
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R8)(R10*4), R8    // next eight rows
	SUBQ    $8, CX
	JMP     centroids

done:
	VZEROUPPER
	RET

DATA posinf<>+0(SB)/4, $0x7f800000
GLOBL posinf<>(SB), RODATA|NOPTR, $4

DATA oneD<>+0(SB)/4, $1
GLOBL oneD<>(SB), RODATA|NOPTR, $4

// func argminL2x8AVX2(xt *float32, dim int, cb *float32, k int, best *int32, dist *float32)
//
// The nearest of the k centroids (rows of dim floats in cb, row-major)
// to eight rows at once, one row per ymm lane: xt holds the rows
// transposed, xt[d*8+l] = row l's dimension d. Per lane it performs
// vec.ArgminL2's float operations in its order: from a zeroed
// accumulator, for d ascending, t = x[d] − c[d] (VSUBPS), t·t (VMULPS),
// acc + t² (VADDPS) — never an FMA. Four centroids are in flight and
// share each x load, their c[d] broadcast to every lane. Centroids are
// then compared in ascending order, strictly (VCMPPS LT), and the best
// distance and index updated by VBLENDVPS, so a tie keeps the lowest
// index and a NaN never wins. The scalar loop's early abandon does not
// change its answer (DESIGN.md §6), so the full sums here agree with
// it bit for bit. dim ≥ 1 and k ≥ 1.
TEXT ·argminL2x8AVX2(SB), NOSPLIT, $0-48
	MOVQ xt+0(FP), SI
	MOVQ dim+8(FP), BX
	MOVQ cb+16(FP), R8
	MOVQ k+24(FP), CX
	MOVQ best+32(FP), DI
	MOVQ dist+40(FP), DX

	MOVQ BX, R9
	SHLQ $2, R9                // row stride in bytes
	LEAQ (R9)(R9*1), R10       // 2 rows
	LEAQ (R9)(R9*2), R11       // 3 rows

	VBROADCASTSS posinf<>(SB), Y10 // best distance per lane: +Inf
	VPXOR        Y11, Y11, Y11     // best index per lane: 0
	VPXOR        Y12, Y12, Y12     // index of the centroid being compared
	VPBROADCASTD oneD<>(SB), Y13

quads:
	CMPQ CX, $4
	JL   singles
	MOVQ R8, R13               // rows c..c+3 at (R13), +R9, +R10, +R11
	MOVQ SI, R14               // xt cursor
	MOVQ BX, AX                // dimensions left
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

quad_dims:
	VMOVUPS      (R14), Y4     // x[d] of the eight rows
	VBROADCASTSS (R13), Y5
	VSUBPS       Y5, Y4, Y5    // t = x[d] − c[d]
	VMULPS       Y5, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (R13)(R9*1), Y6
	VSUBPS       Y6, Y4, Y6
	VMULPS       Y6, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (R13)(R10*1), Y7
	VSUBPS       Y7, Y4, Y7
	VMULPS       Y7, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (R13)(R11*1), Y8
	VSUBPS       Y8, Y4, Y8
	VMULPS       Y8, Y8, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $32, R14
	ADDQ         $4, R13
	DECQ         AX
	JNZ          quad_dims

	VCMPPS    $0x11, Y10, Y0, Y9 // lanes where acc < best (LT_OQ)
	VBLENDVPS Y9, Y0, Y10, Y10
	VBLENDVPS Y9, Y12, Y11, Y11
	VPADDD    Y13, Y12, Y12
	VCMPPS    $0x11, Y10, Y1, Y9
	VBLENDVPS Y9, Y1, Y10, Y10
	VBLENDVPS Y9, Y12, Y11, Y11
	VPADDD    Y13, Y12, Y12
	VCMPPS    $0x11, Y10, Y2, Y9
	VBLENDVPS Y9, Y2, Y10, Y10
	VBLENDVPS Y9, Y12, Y11, Y11
	VPADDD    Y13, Y12, Y12
	VCMPPS    $0x11, Y10, Y3, Y9
	VBLENDVPS Y9, Y3, Y10, Y10
	VBLENDVPS Y9, Y12, Y11, Y11
	VPADDD    Y13, Y12, Y12
	LEAQ      (R8)(R9*4), R8   // next four rows
	SUBQ      $4, CX
	JMP       quads

singles:
	// The last k mod 4 centroids, one at a time.
	TESTQ CX, CX
	JZ    done
	MOVQ  R8, R13
	MOVQ  SI, R14
	MOVQ  BX, AX
	VXORPS Y0, Y0, Y0

single_dims:
	VMOVUPS      (R14), Y4
	VBROADCASTSS (R13), Y5
	VSUBPS       Y5, Y4, Y5
	VMULPS       Y5, Y5, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $32, R14
	ADDQ         $4, R13
	DECQ         AX
	JNZ          single_dims

	VCMPPS    $0x11, Y10, Y0, Y9
	VBLENDVPS Y9, Y0, Y10, Y10
	VBLENDVPS Y9, Y12, Y11, Y11
	VPADDD    Y13, Y12, Y12
	ADDQ      R9, R8
	DECQ      CX
	JMP       singles

done:
	VMOVDQU Y11, (DI)
	VMOVUPS Y10, (DX)
	VZEROUPPER
	RET

// func accumulateExactVBMI(blocks *byte, blockBytes, c, nblocks int, thr int8, key *uint8, rows *uint8, dst *byte, masks *uint16)
//
// The exact 8-bit bound (AccumulateExactGeneric) over four blocks an
// iteration, block k in 128-bit lane k of a zmm register. A grouped
// component j < c looks its lanes up in the group's 16-entry window
// rows[j][key[j]·16:], broadcast to all four lanes once a call (Z16–Z19),
// by VPSHUFB, as asm-avx2 does. An ungrouped component looks each full
// code byte up in its whole 256-entry row: two two-table byte permutes
// (VPERMT2B, the form of VPERMI2B that overwrites a table rather than
// the index) resolve the low seven index bits against entries 0..127
// and, again, against 128..255, each a 128-entry table of one register
// and one memory operand, and the lanes whose index has bit 7 set take
// the second (VPMOVB2M, then a masked VMOVDQU8). Accumulation, the
// final VPMINUB against 127 and the signed VPCMPGTB against the
// threshold are asm-avx2's, the compare into an opmask whose 64 bits
// are the four blocks' 16-bit masks. The last nblocks mod 4 blocks run
// in one more pass, lanes past the last block reading it again, and
// only their bytes and masks are stored. Every load lies inside the
// block it serves: a packed component's 16 bytes end within the full
// bytes that follow it (c <= 4).
//
// Lane k reads its block at SI plus 0, R14, DX, R13.
#define LANES(off, base, dst) \
	VMOVDQU      off(base), X2; \
	VINSERTI32X4 $1, off(base)(R14*1), Z2, Z2; \
	VINSERTI32X4 $2, off(base)(DX*1), Z2, Z2; \
	VINSERTI32X4 $3, off(base)(R13*1), Z2, dst

#define GROUPED(off, win) \
	LANES(off, SI, Z2); \
	VPSRLW     $4, Z2, Z4; \
	VPANDQ     Z10, Z2, Z3; \
	VPANDQ     Z10, Z4, Z4; \
	VPUNPCKLBW Z4, Z3, Z5; \
	VPSHUFB    Z5, win, Z6; \
	VPADDUSB   Z6, Z0, Z0

TEXT ·accumulateExactVBMI(SB), NOSPLIT, $0-72
	MOVQ blocks+0(FP), SI
	MOVQ blockBytes+8(FP), BX
	MOVQ c+16(FP), CX
	MOVQ nblocks+24(FP), R8
	MOVQ key+40(FP), DX
	MOVQ rows+48(FP), R9
	MOVQ dst+56(FP), DI
	MOVQ masks+64(FP), R12

	VBROADCASTI32X4 mask0f<>(SB), Z10
	VBROADCASTI32X4 mask7f<>(SB), Z11
	VPBROADCASTB    thr+32(FP), Z12 // prune threshold in every lane

	// The group's windows, rows[j] + key[j]·16 for j < c.
	CMPQ            CX, $1
	JL              windows_done
	MOVBQZX         0(DX), AX
	SHLQ            $4, AX
	VBROADCASTI32X4 (R9)(AX*1), Z16
	CMPQ            CX, $2
	JL              windows_done
	MOVBQZX         1(DX), AX
	SHLQ            $4, AX
	VBROADCASTI32X4 256(R9)(AX*1), Z17
	CMPQ            CX, $3
	JL              windows_done
	MOVBQZX         2(DX), AX
	SHLQ            $4, AX
	VBROADCASTI32X4 512(R9)(AX*1), Z18
	CMPQ            CX, $4
	JL              windows_done
	MOVBQZX         3(DX), AX
	SHLQ            $4, AX
	VBROADCASTI32X4 768(R9)(AX*1), Z19

windows_done:
	MOVQ BX, R14               // four blocks an iteration: lane k at k·blockBytes
	LEAQ (BX)(BX*1), DX
	LEAQ (BX)(BX*2), R13

blockloop:
	CMPQ  R8, $4
	JGE   accumulate
	TESTQ R8, R8
	JZ    done
	// The last one to three blocks: lane k reads block min(k, nblocks−1),
	// the last block but for lane 1 of three.
	MOVQ    R8, AX
	DECQ    AX
	IMULQ   BX, AX             // the last block's offset
	MOVQ    AX, R13
	MOVQ    AX, DX
	MOVQ    AX, R14
	CMPQ    R8, $2
	CMOVQGT BX, R14            // three blocks: lane 1 reads block 1

accumulate:
	VPXORQ Z0, Z0, Z0          // 64-lane accumulator
	CMPQ   CX, $1
	JL     ungrouped
	GROUPED(0, Z16)
	CMPQ   CX, $2
	JL     ungrouped
	GROUPED(8, Z17)
	CMPQ   CX, $3
	JL     ungrouped
	GROUPED(16, Z18)
	CMPQ   CX, $4
	JL     ungrouped
	GROUPED(24, Z19)

ungrouped:
	LEAQ (SI)(CX*8), R10       // component c's full bytes in lane 0's block
	MOVQ CX, R11
	SHLQ $8, R11
	ADDQ R9, R11               // rows[c]
	MOVQ $8, AX
	SUBQ CX, AX                // 8 - c ungrouped components

ungrouped_loop:
	LANES(0, R10, Z2)
	VMOVDQU64 (R11), Z3        // entries 0..63
	VPERMT2B  64(R11), Z2, Z3  // entries 0..127 at index bits 6..0
	VMOVDQU64 128(R11), Z4     // entries 128..191
	VPERMT2B  192(R11), Z2, Z4 // entries 128..255
	VPMOVB2M  Z2, K1           // index bit 7: the row's upper half
	VMOVDQU8  Z4, K1, Z3       // merge on bit 7
	VPADDUSB  Z3, Z0, Z0
	ADDQ      $16, R10
	ADDQ      $256, R11
	DECQ      AX
	JNZ       ungrouped_loop

	VPMINUB  Z11, Z0, Z0       // saturate the quantized range at 127
	VPCMPGTB Z12, Z0, K2       // lanes above the threshold are pruned
	KMOVQ    K2, AX            // block k's mask in bits 16k..16k+15
	CMPQ     R8, $4
	JL       last_blocks
	VMOVDQU64 Z0, (DI)
	MOVQ      AX, (R12)
	ADDQ      $64, DI
	ADDQ      $8, R12
	LEAQ      (SI)(BX*4), SI
	SUBQ      $4, R8
	JMP       blockloop

last_blocks:
	// Store the bytes of the R8 blocks through an opmask of 16·R8 bits,
	// then their masks one word at a time.
	MOVQ     R8, CX
	SHLQ     $4, CX
	MOVQ     $1, R10
	SHLQ     CX, R10
	DECQ     R10
	KMOVQ    R10, K3
	VMOVDQU8 Z0, K3, (DI)

last_masks:
	MOVW AX, (R12)
	SHRQ $16, AX
	ADDQ $2, R12
	DECQ R8
	JNZ  last_masks

done:
	VZEROUPPER
	RET

DATA bin127<>+0(SB)/8, $0x405fc00000000000 // 127.0
GLOBL bin127<>(SB), RODATA|NOPTR, $8

DATA oneF64<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL oneF64<>(SB), RODATA|NOPTR, $8

// QUANT is DistQuantizer.Quantize on four entries x (float64): t is
// the floor of (x − qmin)/delta, u the bin, written back into x. The
// correction compares qmin + t·delta, one rounded multiply and one
// rounded add, with x, and takes 1 off t where it lies above; then
// t > 127 gives 127 and !(t > 0) — NaN included — gives 0.
#define QUANT(x, t, u, v) \
	VSUBPD    Y10, x, t; \
	VDIVPD    Y11, t, t; \
	VROUNDPD  $1, t, t; \
	VMULPD    Y11, t, u; \
	VADDPD    u, Y10, u; \
	VCMPPD    $0x1e, x, u, u; \
	VANDPD    Y13, u, u; \
	VSUBPD    u, t, u; \
	VCMPPD    $0x1e, Y12, t, v; \
	VBLENDVPD v, Y12, u, u; \
	VCMPPD    $0x1e, Y14, t, v; \
	VANDPD    v, u, x

// func quantizeRowAVX2(src *float32, n int, qmin, delta float64, dst *uint8)
//
// dst[i] = the bin of src[i] under the quantizer (qmin, delta), eight
// entries a pass, in the float64 operations of the Go body
// (scan.DistQuantizer.Quantize) and its order: widen, subtract, divide,
// floor (VROUNDPD round-down), the correction, the clamps, then
// truncate and pack to bytes. n is a positive multiple of 8.
TEXT ·quantizeRowAVX2(SB), NOSPLIT, $0-40
	MOVQ         src+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD qmin+16(FP), Y10
	VBROADCASTSD delta+24(FP), Y11
	MOVQ         dst+32(FP), DI
	VBROADCASTSD bin127<>(SB), Y12
	VBROADCASTSD oneF64<>(SB), Y13
	VXORPD       Y14, Y14, Y14

quantloop:
	VCVTPS2PD   (SI), Y0       // entries 0..3
	VCVTPS2PD   16(SI), Y1     // entries 4..7
	QUANT(Y0, Y2, Y3, Y4)
	QUANT(Y1, Y5, Y6, Y7)
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VPACKSSDW   X1, X0, X0     // eight words
	VPACKUSWB   X0, X0, X0     // eight bytes
	VMOVQ       X0, (DI)
	ADDQ        $32, SI
	ADDQ        $8, DI
	SUBQ        $8, CX
	JNZ         quantloop

	VZEROUPPER
	RET

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
