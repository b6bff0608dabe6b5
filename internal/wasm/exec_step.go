package wasm

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync/atomic"
)

// The register tier has one executor. When a function's register form is
// translated (Compiled.reg), every instruction is compiled once into its
// own pre-bound Go closure, a regStep; runSteps then just calls the step
// at pc and moves to the pc it returns. Plain wasm value opcodes keep dst
// in .a and sources in .b/.c; every arithmetic arm is the same Go
// expression as the stack tiers', so results are bit-identical, and every
// checked memory access goes through the same memLoad*/memStore* helpers
// (identical bounds traps and EPC touch sequences). The superblock tier
// (superblock.go) copies a function's step array and replaces the step at
// the header of each idiom loop with the idiom's trace; every other pc,
// including the interior of an idiom loop, runs its own step.

// regStep executes one register-IR instruction of the frame based at bp
// (r is in.stack[bp:], mem is in.mem) and returns the next pc, or -1
// once the function has returned.
type regStep func(in *Instance, r []uint64, mem *Memory, bp int) int

// runSteps runs a register-form body, retiring one instruction per step
// (an idiom trace charges its extra dispatches itself).
func (in *Instance) runSteps(fn *compiledFunc, bp int) {
	steps, r, mem := fn.steps, in.stack[bp:], in.mem
	var retired int64
	for pc := 0; pc >= 0; retired++ {
		pc = steps[pc](in, r, mem, bp)
	}
	in.insRetired += retired
}

// lowerSteps compiles every instruction of a register-form body.
func lowerSteps(fn *compiledFunc) []regStep {
	steps := make([]regStep, len(fn.code))
	for pc := range fn.code {
		steps[pc] = makeStep(fn, pc)
	}
	return steps
}

// makeStep compiles the instruction at pc into its step. An opcode with
// no arm compiles to a step that traps when reached.
func makeStep(fn *compiledFunc, pc int) regStep {
	i := &fn.code[pc]
	a, b, c, imm := i.a, i.b, i.c, i.imm
	tgt, next := int(i.a), pc+1
	switch i.op {

	// --- moves ---
	case rOpConst:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = imm; return next }
	case rOpCopy:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b]; return next }

	// --- control ---
	case rOpBr:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { return tgt }
	case rOpBrIf:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			if uint32(r[b]) != 0 {
				return tgt
			}
			return next
		}
	case rOpBrIfZ:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			if uint32(r[b]) == 0 {
				return tgt
			}
			return next
		}
	case rOpBrCmp:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			if i32Cmp(byte(imm), uint32(r[b]), uint32(r[c])) {
				return tgt
			}
			return next
		}
	case rOpBrCmpImm:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			if i32Cmp(byte(imm), uint32(r[b]), uint32(imm>>32)) {
				return tgt
			}
			return next
		}
	case rOpUnreach:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			trap(TrapUnreachable, "")
			return next
		}
	case rOpBrTable:
		table, top := fn.brTables[a], int(c)
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			idx := uint32(r[b])
			t := table[len(table)-1]
			if int(idx) < len(table)-1 {
				t = table[idx]
			}
			if t.drop > 0 {
				copy(r[top-int(t.keep)-int(t.drop):top-int(t.drop)], r[top-int(t.keep):top])
			}
			return int(t.pc)
		}
	case rOpReturn:
		keep := int(c)
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			copy(r[:keep], r[a:int(a)+keep])
			in.sp = bp + keep
			return -1
		}

	// --- calls ---
	case rOpCall:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			in.sp = bp + int(b)
			in.invokeFunc(int(a))
			return next
		}
	case rOpCallIndirect:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			elem := uint32(r[c])
			if int(elem) >= len(in.table) {
				trap(TrapUndefinedElem, "index %d of %d", elem, len(in.table))
			}
			target := in.table[elem]
			if target < 0 {
				trap(TrapUndefinedElem, "uninitialised element %d", elem)
			}
			want := in.m.Types[a]
			got, err := in.m.TypeOfFunc(uint32(target))
			if err != nil || !got.Equal(want) {
				trap(TrapIndirectType, "want %v got %v", want, got)
			}
			in.sp = bp + int(b)
			in.invokeFunc(int(target))
			return next
		}

	// --- parametric ---
	case rOpSelect:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			if uint32(r[uint32(imm)]) != 0 {
				r[a] = r[b]
			} else {
				r[a] = r[c]
			}
			return next
		}

	// --- globals ---
	case rOpGlobalGet:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = in.globals[b]; return next }
	case rOpGlobalSet:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { in.globals[a] = r[b]; return next }

	// --- memory management ---
	case rOpMemSize:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = uint64(mem.Pages()); return next }
	case rOpMemGrow:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(mem.Grow(uint32(r[b]))))
			return next
		}

	// --- checked memory ---
	case rOpLoad32U:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(memLoad32(mem, r[b], imm))
			return next
		}
	case rOpLoad64:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = memLoad64(mem, r[b], imm)
			return next
		}
	case rOpLoad8U:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(memLoad8(mem, r[b], imm))
			return next
		}
	case rOpLoad16U:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(memLoad16(mem, r[b], imm))
			return next
		}
	case rOpLoad8S32:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(int32(int8(memLoad8(mem, r[b], imm)))))
			return next
		}
	case rOpLoad16S32:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(int32(int16(memLoad16(mem, r[b], imm)))))
			return next
		}
	case rOpLoad8S64:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int8(memLoad8(mem, r[b], imm))))
			return next
		}
	case rOpLoad16S64:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int16(memLoad16(mem, r[b], imm))))
			return next
		}
	case rOpLoad32S64:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int32(memLoad32(mem, r[b], imm))))
			return next
		}
	case rOpStore8:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			memStore8(mem, r[a], imm, byte(r[b]))
			return next
		}
	case rOpStore16:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			memStore16(mem, r[a], imm, uint16(r[b]))
			return next
		}
	case rOpStore32:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			memStore32(mem, r[a], imm, uint32(r[b]))
			return next
		}
	case rOpStore64:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			memStore64(mem, r[a], imm, r[b])
			return next
		}
	case rOpStore64Imm:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			memStore64(mem, r[a], uint64(uint32(c)), imm)
			return next
		}
	case rOpLoadAff64:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			addr := uint64(uint32(r[b])*uint32(imm>>32) + uint32(imm))
			r[a] = memLoad64(mem, addr, uint64(uint32(c)))
			return next
		}
	case rOpLoadAff32:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			addr := uint64(uint32(r[b])*uint32(imm>>32) + uint32(imm))
			r[a] = uint64(memLoad32(mem, addr, uint64(uint32(c))))
			return next
		}
	case rOpStoreAff64:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			addr := uint64(uint32(r[a])*uint32(imm>>32) + uint32(imm))
			memStore64(mem, addr, uint64(uint32(c)), r[b])
			return next
		}

	// --- hoisted guards + raw windows ---
	case rOpMemGuard:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			base := uint64(uint32(r[b]))
			if !regGuardOK(mem, base+(imm>>32), base+(imm&0xFFFFFFFF)) {
				return tgt
			}
			return next
		}
	case rOpMemGuardAff:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			base := uint64(uint32(r[b])*uint32(imm>>32) + uint32(imm))
			lo := base + uint64(uint32(c)>>16)
			hi := base + uint64(uint32(c)&0xFFFF)
			if !regGuardOK(mem, lo, hi) {
				return tgt
			}
			return next
		}
	case rOpLoad32U + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(binary.LittleEndian.Uint32(mem.data[uint64(uint32(r[b]))+imm:]))
			return next
		}
	case rOpLoad64 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = binary.LittleEndian.Uint64(mem.data[uint64(uint32(r[b]))+imm:])
			return next
		}
	case rOpLoad8U + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(mem.data[uint64(uint32(r[b]))+imm])
			return next
		}
	case rOpLoad16U + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(binary.LittleEndian.Uint16(mem.data[uint64(uint32(r[b]))+imm:]))
			return next
		}
	case rOpLoad8S32 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(int32(int8(mem.data[uint64(uint32(r[b]))+imm]))))
			return next
		}
	case rOpLoad16S32 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(int32(int16(binary.LittleEndian.Uint16(mem.data[uint64(uint32(r[b]))+imm:])))))
			return next
		}
	case rOpLoad8S64 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int8(mem.data[uint64(uint32(r[b]))+imm])))
			return next
		}
	case rOpLoad16S64 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int16(binary.LittleEndian.Uint16(mem.data[uint64(uint32(r[b]))+imm:]))))
			return next
		}
	case rOpLoad32S64 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int32(binary.LittleEndian.Uint32(mem.data[uint64(uint32(r[b]))+imm:]))))
			return next
		}
	case rOpStore8 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			mem.data[uint64(uint32(r[a]))+imm] = byte(r[b])
			return next
		}
	case rOpStore16 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			binary.LittleEndian.PutUint16(mem.data[uint64(uint32(r[a]))+imm:], uint16(r[b]))
			return next
		}
	case rOpStore32 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			binary.LittleEndian.PutUint32(mem.data[uint64(uint32(r[a]))+imm:], uint32(r[b]))
			return next
		}
	case rOpStore64 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			binary.LittleEndian.PutUint64(mem.data[uint64(uint32(r[a]))+imm:], r[b])
			return next
		}
	case rOpStore64Imm + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			binary.LittleEndian.PutUint64(mem.data[uint64(uint32(r[a]))+uint64(uint32(c)):], imm)
			return next
		}
	case rOpLoadAff64 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			addr := uint64(uint32(r[b])*uint32(imm>>32)+uint32(imm)) + uint64(uint32(c))
			r[a] = binary.LittleEndian.Uint64(mem.data[addr:])
			return next
		}
	case rOpLoadAff32 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			addr := uint64(uint32(r[b])*uint32(imm>>32)+uint32(imm)) + uint64(uint32(c))
			r[a] = uint64(binary.LittleEndian.Uint32(mem.data[addr:]))
			return next
		}
	case rOpStoreAff64 + rawDelta:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			addr := uint64(uint32(r[a])*uint32(imm>>32)+uint32(imm)) + uint64(uint32(c))
			binary.LittleEndian.PutUint64(mem.data[addr:], r[b])
			return next
		}

	// --- fused ALU ---
	case rOpI32AddImm:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]) + uint32(imm))
			return next
		}
	case rOpI32MulImm:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]) * uint32(imm))
			return next
		}
	case rOpI64AddImm:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] + imm; return next }
	case rOpI32MulAdd:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b])*uint32(imm) + uint32(r[c]))
			return next
		}
	case rOpI32MulAddII:
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b])*uint32(imm>>32) + uint32(imm))
			return next
		}
	case rOpF64MulImm:
		// c records which side the constant came from: float operand
		// order is observable via NaN payload propagation.
		if c != 0 {
			return func(in *Instance, r []uint64, mem *Memory, bp int) int {
				r[a] = pf64(f64(imm) * f64(r[b]))
				return next
			}
		}
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(f64(r[b]) * f64(imm))
			return next
		}
	case rOpF64MulAdd:
		// The conversion forces the product rounding before the add (no
		// FMA contraction), exactly like opFusedF64MulAdd.
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			prod := float64(f64(r[b]) * f64(r[c]))
			r[a] = pf64(f64(r[uint32(imm)]) + prod)
			return next
		}

	// --- i32 compare ---
	case uint16(OpI32Eqz):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(uint32(r[b]) == 0)
			return next
		}
	case uint16(OpI32Eq), uint16(OpI32Ne), uint16(OpI32LtS), uint16(OpI32LtU),
		uint16(OpI32GtS), uint16(OpI32GtU), uint16(OpI32LeS), uint16(OpI32LeU),
		uint16(OpI32GeS), uint16(OpI32GeU):
		op := byte(i.op)
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(i32Cmp(op, uint32(r[b]), uint32(r[c])))
			return next
		}

	// --- i64 compare ---
	case uint16(OpI64Eqz):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = b2u(r[b] == 0); return next }
	case uint16(OpI64Eq):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = b2u(r[b] == r[c]); return next }
	case uint16(OpI64Ne):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = b2u(r[b] != r[c]); return next }
	case uint16(OpI64LtS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(int64(r[b]) < int64(r[c]))
			return next
		}
	case uint16(OpI64LtU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = b2u(r[b] < r[c]); return next }
	case uint16(OpI64GtS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(int64(r[b]) > int64(r[c]))
			return next
		}
	case uint16(OpI64GtU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = b2u(r[b] > r[c]); return next }
	case uint16(OpI64LeS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(int64(r[b]) <= int64(r[c]))
			return next
		}
	case uint16(OpI64LeU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = b2u(r[b] <= r[c]); return next }
	case uint16(OpI64GeS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(int64(r[b]) >= int64(r[c]))
			return next
		}
	case uint16(OpI64GeU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = b2u(r[b] >= r[c]); return next }

	// --- float compare ---
	case uint16(OpF32Eq):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f32(r[b]) == f32(r[c]))
			return next
		}
	case uint16(OpF32Ne):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f32(r[b]) != f32(r[c]))
			return next
		}
	case uint16(OpF32Lt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f32(r[b]) < f32(r[c]))
			return next
		}
	case uint16(OpF32Gt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f32(r[b]) > f32(r[c]))
			return next
		}
	case uint16(OpF32Le):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f32(r[b]) <= f32(r[c]))
			return next
		}
	case uint16(OpF32Ge):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f32(r[b]) >= f32(r[c]))
			return next
		}
	case uint16(OpF64Eq):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f64(r[b]) == f64(r[c]))
			return next
		}
	case uint16(OpF64Ne):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f64(r[b]) != f64(r[c]))
			return next
		}
	case uint16(OpF64Lt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f64(r[b]) < f64(r[c]))
			return next
		}
	case uint16(OpF64Gt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f64(r[b]) > f64(r[c]))
			return next
		}
	case uint16(OpF64Le):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f64(r[b]) <= f64(r[c]))
			return next
		}
	case uint16(OpF64Ge):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = b2u(f64(r[b]) >= f64(r[c]))
			return next
		}

	// --- i32 arithmetic ---
	case uint16(OpI32Clz):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.LeadingZeros32(uint32(r[b])))
			return next
		}
	case uint16(OpI32Ctz):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.TrailingZeros32(uint32(r[b])))
			return next
		}
	case uint16(OpI32Popcnt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.OnesCount32(uint32(r[b])))
			return next
		}
	case uint16(OpI32Add):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]) + uint32(r[c]))
			return next
		}
	case uint16(OpI32Sub):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]) - uint32(r[c]))
			return next
		}
	case uint16(OpI32Mul):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]) * uint32(r[c]))
			return next
		}
	case uint16(OpI32DivS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			d := int32(r[c])
			n := int32(r[b])
			if d == 0 {
				trap(TrapDivZero, "i32.div_s")
			}
			if n == math.MinInt32 && d == -1 {
				trap(TrapIntOverflow, "i32.div_s")
			}
			r[a] = uint64(uint32(n / d))
			return next
		}
	case uint16(OpI32DivU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			d := uint32(r[c])
			if d == 0 {
				trap(TrapDivZero, "i32.div_u")
			}
			r[a] = uint64(uint32(r[b]) / d)
			return next
		}
	case uint16(OpI32RemS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			d := int32(r[c])
			n := int32(r[b])
			if d == 0 {
				trap(TrapDivZero, "i32.rem_s")
			}
			if n == math.MinInt32 && d == -1 {
				r[a] = 0
			} else {
				r[a] = uint64(uint32(n % d))
			}
			return next
		}
	case uint16(OpI32RemU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			d := uint32(r[c])
			if d == 0 {
				trap(TrapDivZero, "i32.rem_u")
			}
			r[a] = uint64(uint32(r[b]) % d)
			return next
		}
	case uint16(OpI32And):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] & r[c]; return next }
	case uint16(OpI32Or):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] | r[c]; return next }
	case uint16(OpI32Xor):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] ^ r[c]; return next }
	case uint16(OpI32Shl):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]) << (uint32(r[c]) & 31))
			return next
		}
	case uint16(OpI32ShrS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(int32(r[b]) >> (uint32(r[c]) & 31)))
			return next
		}
	case uint16(OpI32ShrU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]) >> (uint32(r[c]) & 31))
			return next
		}
	case uint16(OpI32Rotl):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.RotateLeft32(uint32(r[b]), int(uint32(r[c])&31)))
			return next
		}
	case uint16(OpI32Rotr):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.RotateLeft32(uint32(r[b]), -int(uint32(r[c])&31)))
			return next
		}

	// --- i64 arithmetic ---
	case uint16(OpI64Clz):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.LeadingZeros64(r[b]))
			return next
		}
	case uint16(OpI64Ctz):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.TrailingZeros64(r[b]))
			return next
		}
	case uint16(OpI64Popcnt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(bits.OnesCount64(r[b]))
			return next
		}
	case uint16(OpI64Add):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] + r[c]; return next }
	case uint16(OpI64Sub):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] - r[c]; return next }
	case uint16(OpI64Mul):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] * r[c]; return next }
	case uint16(OpI64DivS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			d := int64(r[c])
			n := int64(r[b])
			if d == 0 {
				trap(TrapDivZero, "i64.div_s")
			}
			if n == math.MinInt64 && d == -1 {
				trap(TrapIntOverflow, "i64.div_s")
			}
			r[a] = uint64(n / d)
			return next
		}
	case uint16(OpI64DivU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			if r[c] == 0 {
				trap(TrapDivZero, "i64.div_u")
			}
			r[a] = r[b] / r[c]
			return next
		}
	case uint16(OpI64RemS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			d := int64(r[c])
			n := int64(r[b])
			if d == 0 {
				trap(TrapDivZero, "i64.rem_s")
			}
			if n == math.MinInt64 && d == -1 {
				r[a] = 0
			} else {
				r[a] = uint64(n % d)
			}
			return next
		}
	case uint16(OpI64RemU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			if r[c] == 0 {
				trap(TrapDivZero, "i64.rem_u")
			}
			r[a] = r[b] % r[c]
			return next
		}
	case uint16(OpI64And):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] & r[c]; return next }
	case uint16(OpI64Or):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] | r[c]; return next }
	case uint16(OpI64Xor):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] ^ r[c]; return next }
	case uint16(OpI64Shl):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = r[b] << (r[c] & 63)
			return next
		}
	case uint16(OpI64ShrS):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(r[b]) >> (r[c] & 63))
			return next
		}
	case uint16(OpI64ShrU):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = r[b] >> (r[c] & 63)
			return next
		}
	case uint16(OpI64Rotl):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = bits.RotateLeft64(r[b], int(r[c]&63))
			return next
		}
	case uint16(OpI64Rotr):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = bits.RotateLeft64(r[b], -int(r[c]&63))
			return next
		}

	// --- f64 arithmetic ---
	case uint16(OpF64Add):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(f64(r[b]) + f64(r[c]))
			return next
		}
	case uint16(OpF64Sub):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(f64(r[b]) - f64(r[c]))
			return next
		}
	case uint16(OpF64Mul):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(f64(r[b]) * f64(r[c]))
			return next
		}
	case uint16(OpF64Div):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(f64(r[b]) / f64(r[c]))
			return next
		}
	case uint16(OpF64Min):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.Min(f64(r[b]), f64(r[c])))
			return next
		}
	case uint16(OpF64Max):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.Max(f64(r[b]), f64(r[c])))
			return next
		}
	case uint16(OpF64Copysign):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.Copysign(f64(r[b]), f64(r[c])))
			return next
		}
	case uint16(OpF64Abs):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] &^ (1 << 63); return next }
	case uint16(OpF64Neg):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] ^ (1 << 63); return next }
	case uint16(OpF64Ceil):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.Ceil(f64(r[b])))
			return next
		}
	case uint16(OpF64Floor):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.Floor(f64(r[b])))
			return next
		}
	case uint16(OpF64Trunc):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.Trunc(f64(r[b])))
			return next
		}
	case uint16(OpF64Nearest):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.RoundToEven(f64(r[b])))
			return next
		}
	case uint16(OpF64Sqrt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(math.Sqrt(f64(r[b])))
			return next
		}

	// --- f32 arithmetic ---
	case uint16(OpF32Add):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(f32(r[b]) + f32(r[c]))
			return next
		}
	case uint16(OpF32Sub):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(f32(r[b]) - f32(r[c]))
			return next
		}
	case uint16(OpF32Mul):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(f32(r[b]) * f32(r[c]))
			return next
		}
	case uint16(OpF32Div):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(f32(r[b]) / f32(r[c]))
			return next
		}
	case uint16(OpF32Min):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Min(float64(f32(r[b])), float64(f32(r[c])))))
			return next
		}
	case uint16(OpF32Max):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Max(float64(f32(r[b])), float64(f32(r[c])))))
			return next
		}
	case uint16(OpF32Copysign):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Copysign(float64(f32(r[b])), float64(f32(r[c])))))
			return next
		}
	case uint16(OpF32Abs):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Abs(float64(f32(r[b])))))
			return next
		}
	case uint16(OpF32Neg):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b] ^ 0x80000000; return next }
	case uint16(OpF32Ceil):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Ceil(float64(f32(r[b])))))
			return next
		}
	case uint16(OpF32Floor):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Floor(float64(f32(r[b])))))
			return next
		}
	case uint16(OpF32Trunc):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Trunc(float64(f32(r[b])))))
			return next
		}
	case uint16(OpF32Nearest):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.RoundToEven(float64(f32(r[b])))))
			return next
		}
	case uint16(OpF32Sqrt):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(math.Sqrt(float64(f32(r[b])))))
			return next
		}

	// --- conversions ---
	case uint16(OpI32WrapI64), uint16(OpI64ExtendI32U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(r[b]))
			return next
		}
	case uint16(OpI32TruncF32S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(truncS32(float64(f32(r[b])))))
			return next
		}
	case uint16(OpI32TruncF32U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(truncU32(float64(f32(r[b]))))
			return next
		}
	case uint16(OpI32TruncF64S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(truncS32(f64(r[b]))))
			return next
		}
	case uint16(OpI32TruncF64U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(truncU32(f64(r[b])))
			return next
		}
	case uint16(OpI64ExtendI32S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int32(r[b])))
			return next
		}
	case uint16(OpI64TruncF32S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(truncS64(float64(f32(r[b]))))
			return next
		}
	case uint16(OpI64TruncF32U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = truncU64(float64(f32(r[b])))
			return next
		}
	case uint16(OpI64TruncF64S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(truncS64(f64(r[b])))
			return next
		}
	case uint16(OpI64TruncF64U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = truncU64(f64(r[b]))
			return next
		}
	case uint16(OpF32ConvertI32S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(int32(r[b])))
			return next
		}
	case uint16(OpF32ConvertI32U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(uint32(r[b])))
			return next
		}
	case uint16(OpF32ConvertI64S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(int64(r[b])))
			return next
		}
	case uint16(OpF32ConvertI64U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(r[b]))
			return next
		}
	case uint16(OpF32DemoteF64):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf32(float32(f64(r[b])))
			return next
		}
	case uint16(OpF64ConvertI32S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(float64(int32(r[b])))
			return next
		}
	case uint16(OpF64ConvertI32U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(float64(uint32(r[b])))
			return next
		}
	case uint16(OpF64ConvertI64S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(float64(int64(r[b])))
			return next
		}
	case uint16(OpF64ConvertI64U):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(float64(r[b]))
			return next
		}
	case uint16(OpF64PromoteF32):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = pf64(float64(f32(r[b])))
			return next
		}
	case uint16(OpI32ReinterpretF32), uint16(OpI64ReinterpretF64),
		uint16(OpF32ReinterpretI32), uint16(OpF64ReinterpretI64):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int { r[a] = r[b]; return next }

	// --- sign extension ---
	case uint16(OpI32Extend8S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(int32(int8(r[b]))))
			return next
		}
	case uint16(OpI32Extend16S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(uint32(int32(int16(r[b]))))
			return next
		}
	case uint16(OpI64Extend8S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int8(r[b])))
			return next
		}
	case uint16(OpI64Extend16S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int16(r[b])))
			return next
		}
	case uint16(OpI64Extend32S):
		return func(in *Instance, r []uint64, mem *Memory, bp int) int {
			r[a] = uint64(int64(int32(r[b])))
			return next
		}
	}
	op := i.op
	return func(in *Instance, r []uint64, mem *Memory, bp int) int {
		trap(TrapUnreachable, "bad register opcode 0x%x", op)
		return next
	}
}

// regGuardOK decides whether the raw window may run: the whole span
// [lo,hi) is in bounds, and every touch within it would provably be a
// no-op — no hook installed, or the span lies on one EPC-TLB page that
// is hot at the current paging generation. The guard never traps and
// never touches, so a failed guard leaves all counters untouched and the
// checked fallback produces the exact historical behaviour.
func regGuardOK(mem *Memory, lo, hi uint64) bool {
	if hi > uint64(len(mem.data)) {
		return false
	}
	if mem.touch == nil {
		return true
	}
	if mem.gen == nil {
		return false
	}
	p := lo >> tlbPageBits
	if (hi-1)>>tlbPageBits != p {
		return false
	}
	e := &mem.tlb[p&tlbMask]
	return e.tag == p+1 && e.gen == atomic.LoadUint64(mem.gen)
}
