package wasm

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sync/atomic"
)

// invokeFunc runs function-index-space entry fi. Arguments are the top
// len(params) slots of the value stack; on return they are replaced by the
// results.
func (in *Instance) invokeFunc(fi int) {
	if fi < len(in.hosts) {
		in.invokeHost(fi)
		return
	}
	fn := &in.funcs[fi-len(in.hosts)]
	base := in.sp - fn.numParams
	top := base + fn.numParams + fn.numLocals + fn.maxStack
	if top > len(in.stack) {
		trap(TrapStackOverflow, "need %d slots", top)
	}
	in.depth++
	if in.depth > in.cfg.MaxCallDepth {
		in.depth--
		trap(TrapCallDepth, "depth %d", in.cfg.MaxCallDepth)
	}
	locals := in.stack[base+fn.numParams : base+fn.numParams+fn.numLocals]
	for i := range locals {
		locals[i] = 0
	}
	if fn.reg {
		in.runSteps(fn, base)
	} else {
		in.runBody(fn, base)
	}
	in.depth--
}

func (in *Instance) invokeHost(fi int) {
	hf := &in.hosts[fi]
	np := len(hf.Type.Params)
	if cap(in.hostArgBuf) < np {
		in.hostArgBuf = make([]uint64, np)
	}
	args := in.hostArgBuf[:np]
	copy(args, in.stack[in.sp-np:in.sp])
	res, err := hf.Fn(in, args)
	if err != nil {
		var exit ExitError
		if errors.As(err, &exit) {
			panic(&Trap{Kind: TrapExit, Code: exit.Code})
		}
		panic(&Trap{Kind: TrapHostError, Msg: hf.Module + "." + hf.Name, Err: err})
	}
	if len(res) != len(hf.Type.Results) {
		trap(TrapHostError, "%s.%s returned %d values, want %d", hf.Module, hf.Name, len(res), len(hf.Type.Results))
	}
	in.sp -= np
	for _, r := range res {
		in.stack[in.sp] = r
		in.sp++
	}
}

// runBody is the interpreter loop. bp is the frame base: params, then
// locals, then the operand stack.
func (in *Instance) runBody(fn *compiledFunc, bp int) {
	code := fn.code
	stack := in.stack
	mem := in.mem
	sp := bp + fn.numParams + fn.numLocals
	pc := 0
	var retired int64

	for {
		i := &code[pc]
		retired++
		switch i.op {

		// --- control ---
		case uint16(OpUnreachable):
			trap(TrapUnreachable, "")
		case opLoweredBr:
			sp = brAdjust(stack, sp, int(i.b), int(i.c))
			pc = int(i.a)
			continue
		case opLoweredBrIf:
			sp--
			if uint32(stack[sp]) != 0 {
				sp = brAdjust(stack, sp, int(i.b), int(i.c))
				pc = int(i.a)
				continue
			}
		case opLoweredBrIfZ:
			sp--
			if uint32(stack[sp]) == 0 {
				sp = brAdjust(stack, sp, int(i.b), int(i.c))
				pc = int(i.a)
				continue
			}
		case opLoweredBrTable:
			sp--
			idx := uint32(stack[sp])
			table := fn.brTables[i.a]
			t := table[len(table)-1]
			if int(idx) < len(table)-1 {
				t = table[idx]
			}
			sp = brAdjust(stack, sp, int(t.drop), int(t.keep))
			pc = int(t.pc)
			continue
		case opLoweredReturn:
			keep := int(i.c)
			copy(stack[bp:bp+keep], stack[sp-keep:sp])
			in.sp = bp + keep
			in.insRetired += retired
			return
		case opFusedCmpBr:
			// Fused i32 compare + conditional branch (AoT engine).
			sp -= 2
			a, b := uint32(stack[sp]), uint32(stack[sp+1])
			var cond bool
			switch byte(i.b) {
			case OpI32Eq:
				cond = a == b
			case OpI32Ne:
				cond = a != b
			case OpI32LtS:
				cond = int32(a) < int32(b)
			case OpI32LtU:
				cond = a < b
			case OpI32GtS:
				cond = int32(a) > int32(b)
			case OpI32GtU:
				cond = a > b
			case OpI32LeS:
				cond = int32(a) <= int32(b)
			case OpI32LeU:
				cond = a <= b
			case OpI32GeS:
				cond = int32(a) >= int32(b)
			case OpI32GeU:
				cond = a >= b
			}
			if cond {
				sp = brAdjust(stack, sp, int(i.c)>>16, int(i.c)&0xFFFF)
				pc = int(i.a)
				continue
			}
		case uint16(OpCall):
			in.sp = sp
			in.invokeFunc(int(i.a))
			sp = in.sp
		case uint16(OpCallIndirect):
			sp--
			elem := uint32(stack[sp])
			if int(elem) >= len(in.table) {
				trap(TrapUndefinedElem, "index %d of %d", elem, len(in.table))
			}
			target := in.table[elem]
			if target < 0 {
				trap(TrapUndefinedElem, "uninitialised element %d", elem)
			}
			want := in.m.Types[i.a]
			got, err := in.m.TypeOfFunc(uint32(target))
			if err != nil || !got.Equal(want) {
				trap(TrapIndirectType, "want %v got %v", want, got)
			}
			in.sp = sp
			in.invokeFunc(int(target))
			sp = in.sp

		// --- parametric ---
		case uint16(OpDrop):
			sp--
		case uint16(OpSelect):
			sp -= 2
			if uint32(stack[sp+1]) == 0 {
				stack[sp-1] = stack[sp]
			}

		// --- variables ---
		case uint16(OpLocalGet):
			stack[sp] = stack[bp+int(i.a)]
			sp++
		case uint16(OpLocalSet):
			sp--
			stack[bp+int(i.a)] = stack[sp]
		case uint16(OpLocalTee):
			stack[bp+int(i.a)] = stack[sp-1]
		case uint16(OpGlobalGet):
			stack[sp] = in.globals[i.a]
			sp++
		case uint16(OpGlobalSet):
			sp--
			in.globals[i.a] = stack[sp]

		// --- memory ---
		case uint16(OpI32Load), uint16(OpF32Load):
			stack[sp-1] = uint64(memLoad32(mem, stack[sp-1], i.imm))
		case uint16(OpI64Load), uint16(OpF64Load):
			stack[sp-1] = memLoad64(mem, stack[sp-1], i.imm)
		case uint16(OpI32Load8S):
			stack[sp-1] = uint64(uint32(int32(int8(memLoad8(mem, stack[sp-1], i.imm)))))
		case uint16(OpI32Load8U), uint16(OpI64Load8U):
			stack[sp-1] = uint64(memLoad8(mem, stack[sp-1], i.imm))
		case uint16(OpI32Load16S):
			stack[sp-1] = uint64(uint32(int32(int16(memLoad16(mem, stack[sp-1], i.imm)))))
		case uint16(OpI32Load16U), uint16(OpI64Load16U):
			stack[sp-1] = uint64(memLoad16(mem, stack[sp-1], i.imm))
		case uint16(OpI64Load8S):
			stack[sp-1] = uint64(int64(int8(memLoad8(mem, stack[sp-1], i.imm))))
		case uint16(OpI64Load16S):
			stack[sp-1] = uint64(int64(int16(memLoad16(mem, stack[sp-1], i.imm))))
		case uint16(OpI64Load32S):
			stack[sp-1] = uint64(int64(int32(memLoad32(mem, stack[sp-1], i.imm))))
		case uint16(OpI64Load32U):
			stack[sp-1] = uint64(memLoad32(mem, stack[sp-1], i.imm))
		case uint16(OpI32Store), uint16(OpF32Store):
			sp -= 2
			memStore32(mem, stack[sp], i.imm, uint32(stack[sp+1]))
		case uint16(OpI64Store), uint16(OpF64Store):
			sp -= 2
			memStore64(mem, stack[sp], i.imm, stack[sp+1])
		case uint16(OpI32Store8), uint16(OpI64Store8):
			sp -= 2
			memStore8(mem, stack[sp], i.imm, byte(stack[sp+1]))
		case uint16(OpI32Store16), uint16(OpI64Store16):
			sp -= 2
			memStore16(mem, stack[sp], i.imm, uint16(stack[sp+1]))
		case uint16(OpI64Store32):
			sp -= 2
			memStore32(mem, stack[sp], i.imm, uint32(stack[sp+1]))

		// --- load/store superinstructions (AoT engine) ---
		case opFusedScaleBaseF64Load:
			stack[sp-1] = memLoad64(mem,
				uint64(uint32(stack[sp-1])*uint32(i.a)+uint32(i.b)), i.imm)
		case opFusedScaleBase:
			stack[sp-1] = uint64(uint32(stack[sp-1])*uint32(i.a) + uint32(i.b))
		case opFusedF64LoadLocal:
			stack[sp] = memLoad64(mem, stack[bp+int(i.a)], i.imm)
			sp++
		case opFusedI32LoadLocal:
			stack[sp] = uint64(memLoad32(mem, stack[bp+int(i.a)], i.imm))
			sp++
		case opFusedF64StoreConst:
			sp--
			memStore64(mem, stack[sp], uint64(uint32(i.a)), i.imm)
		case opFusedF64StoreLocal:
			sp--
			memStore64(mem, stack[sp], uint64(uint32(i.a)), stack[bp+int(i.b)])
		case opFusedF64AddStore:
			sp -= 3
			memStore64(mem, stack[sp], uint64(uint32(i.a)),
				pf64(f64(stack[sp+1])+f64(stack[sp+2])))
		case opFusedF64LoadCmp:
			sp--
			rhs := f64(memLoad64(mem, stack[sp], i.imm))
			lhs := f64(stack[sp-1])
			var cond bool
			switch byte(i.b) {
			case OpF64Eq:
				cond = lhs == rhs
			case OpF64Ne:
				cond = lhs != rhs
			case OpF64Lt:
				cond = lhs < rhs
			case OpF64Gt:
				cond = lhs > rhs
			case OpF64Le:
				cond = lhs <= rhs
			case OpF64Ge:
				cond = lhs >= rhs
			}
			stack[sp-1] = b2u(cond)

		// --- fused address arithmetic (AoT engine) ---
		case opFusedLocalMulC:
			stack[sp] = uint64(uint32(stack[bp+int(i.a)]) * uint32(i.imm))
			sp++
		case opFusedAddLocal:
			stack[sp-1] = uint64(uint32(stack[sp-1]) + uint32(stack[bp+int(i.a)]))
		case opFusedI32MulConst:
			stack[sp-1] = uint64(uint32(stack[sp-1]) * uint32(i.imm))

		// --- hot f64 arithmetic (kept in the main dispatch to avoid a
		// second switch for the PolyBench inner loops) ---
		case uint16(OpF64Add):
			sp--
			stack[sp-1] = pf64(f64(stack[sp-1]) + f64(stack[sp]))
		case uint16(OpF64Sub):
			sp--
			stack[sp-1] = pf64(f64(stack[sp-1]) - f64(stack[sp]))
		case uint16(OpF64Mul):
			sp--
			stack[sp-1] = pf64(f64(stack[sp-1]) * f64(stack[sp]))
		case uint16(OpF64Div):
			sp--
			stack[sp-1] = pf64(f64(stack[sp-1]) / f64(stack[sp]))
		case opFusedF64MulAdd:
			sp -= 2
			// The explicit conversion forces the product to be rounded to
			// float64 before the add (Go spec: conversions bar fused
			// operations), so this can never contract into a hardware FMA
			// — the two roundings of the unfused f64.mul/f64.add pair are
			// preserved bit-for-bit on every architecture.
			prod := float64(f64(stack[sp]) * f64(stack[sp+1]))
			stack[sp-1] = pf64(f64(stack[sp-1]) + prod)

		case uint16(OpMemorySize):
			stack[sp] = uint64(mem.Pages())
			sp++
		case uint16(OpMemoryGrow):
			stack[sp-1] = uint64(uint32(mem.Grow(uint32(stack[sp-1]))))

		// --- constants ---
		case uint16(OpI32Const), uint16(OpI64Const), uint16(OpF32Const), uint16(OpF64Const):
			stack[sp] = i.imm
			sp++

		// --- i32 compare ---
		case uint16(OpI32Eqz):
			stack[sp-1] = b2u(uint32(stack[sp-1]) == 0)
		case uint16(OpI32Eq):
			sp--
			stack[sp-1] = b2u(uint32(stack[sp-1]) == uint32(stack[sp]))
		case uint16(OpI32Ne):
			sp--
			stack[sp-1] = b2u(uint32(stack[sp-1]) != uint32(stack[sp]))
		case uint16(OpI32LtS):
			sp--
			stack[sp-1] = b2u(int32(stack[sp-1]) < int32(stack[sp]))
		case uint16(OpI32LtU):
			sp--
			stack[sp-1] = b2u(uint32(stack[sp-1]) < uint32(stack[sp]))
		case uint16(OpI32GtS):
			sp--
			stack[sp-1] = b2u(int32(stack[sp-1]) > int32(stack[sp]))
		case uint16(OpI32GtU):
			sp--
			stack[sp-1] = b2u(uint32(stack[sp-1]) > uint32(stack[sp]))
		case uint16(OpI32LeS):
			sp--
			stack[sp-1] = b2u(int32(stack[sp-1]) <= int32(stack[sp]))
		case uint16(OpI32LeU):
			sp--
			stack[sp-1] = b2u(uint32(stack[sp-1]) <= uint32(stack[sp]))
		case uint16(OpI32GeS):
			sp--
			stack[sp-1] = b2u(int32(stack[sp-1]) >= int32(stack[sp]))
		case uint16(OpI32GeU):
			sp--
			stack[sp-1] = b2u(uint32(stack[sp-1]) >= uint32(stack[sp]))

		// --- i64 compare ---
		case uint16(OpI64Eqz):
			stack[sp-1] = b2u(stack[sp-1] == 0)
		case uint16(OpI64Eq):
			sp--
			stack[sp-1] = b2u(stack[sp-1] == stack[sp])
		case uint16(OpI64Ne):
			sp--
			stack[sp-1] = b2u(stack[sp-1] != stack[sp])
		case uint16(OpI64LtS):
			sp--
			stack[sp-1] = b2u(int64(stack[sp-1]) < int64(stack[sp]))
		case uint16(OpI64LtU):
			sp--
			stack[sp-1] = b2u(stack[sp-1] < stack[sp])
		case uint16(OpI64GtS):
			sp--
			stack[sp-1] = b2u(int64(stack[sp-1]) > int64(stack[sp]))
		case uint16(OpI64GtU):
			sp--
			stack[sp-1] = b2u(stack[sp-1] > stack[sp])
		case uint16(OpI64LeS):
			sp--
			stack[sp-1] = b2u(int64(stack[sp-1]) <= int64(stack[sp]))
		case uint16(OpI64LeU):
			sp--
			stack[sp-1] = b2u(stack[sp-1] <= stack[sp])
		case uint16(OpI64GeS):
			sp--
			stack[sp-1] = b2u(int64(stack[sp-1]) >= int64(stack[sp]))
		case uint16(OpI64GeU):
			sp--
			stack[sp-1] = b2u(stack[sp-1] >= stack[sp])

		// --- float compare ---
		case uint16(OpF32Eq):
			sp--
			stack[sp-1] = b2u(f32(stack[sp-1]) == f32(stack[sp]))
		case uint16(OpF32Ne):
			sp--
			stack[sp-1] = b2u(f32(stack[sp-1]) != f32(stack[sp]))
		case uint16(OpF32Lt):
			sp--
			stack[sp-1] = b2u(f32(stack[sp-1]) < f32(stack[sp]))
		case uint16(OpF32Gt):
			sp--
			stack[sp-1] = b2u(f32(stack[sp-1]) > f32(stack[sp]))
		case uint16(OpF32Le):
			sp--
			stack[sp-1] = b2u(f32(stack[sp-1]) <= f32(stack[sp]))
		case uint16(OpF32Ge):
			sp--
			stack[sp-1] = b2u(f32(stack[sp-1]) >= f32(stack[sp]))
		case uint16(OpF64Eq):
			sp--
			stack[sp-1] = b2u(f64(stack[sp-1]) == f64(stack[sp]))
		case uint16(OpF64Ne):
			sp--
			stack[sp-1] = b2u(f64(stack[sp-1]) != f64(stack[sp]))
		case uint16(OpF64Lt):
			sp--
			stack[sp-1] = b2u(f64(stack[sp-1]) < f64(stack[sp]))
		case uint16(OpF64Gt):
			sp--
			stack[sp-1] = b2u(f64(stack[sp-1]) > f64(stack[sp]))
		case uint16(OpF64Le):
			sp--
			stack[sp-1] = b2u(f64(stack[sp-1]) <= f64(stack[sp]))
		case uint16(OpF64Ge):
			sp--
			stack[sp-1] = b2u(f64(stack[sp-1]) >= f64(stack[sp]))

		// --- i32 arithmetic ---
		case uint16(OpI32Clz):
			stack[sp-1] = uint64(bits.LeadingZeros32(uint32(stack[sp-1])))
		case uint16(OpI32Ctz):
			stack[sp-1] = uint64(bits.TrailingZeros32(uint32(stack[sp-1])))
		case uint16(OpI32Popcnt):
			stack[sp-1] = uint64(bits.OnesCount32(uint32(stack[sp-1])))
		case uint16(OpI32Add):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) + uint32(stack[sp]))
		case uint16(OpI32Sub):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) - uint32(stack[sp]))
		case uint16(OpI32Mul):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) * uint32(stack[sp]))
		case uint16(OpI32DivS):
			sp--
			d := int32(stack[sp])
			n := int32(stack[sp-1])
			if d == 0 {
				trap(TrapDivZero, "i32.div_s")
			}
			if n == math.MinInt32 && d == -1 {
				trap(TrapIntOverflow, "i32.div_s")
			}
			stack[sp-1] = uint64(uint32(n / d))
		case uint16(OpI32DivU):
			sp--
			d := uint32(stack[sp])
			if d == 0 {
				trap(TrapDivZero, "i32.div_u")
			}
			stack[sp-1] = uint64(uint32(stack[sp-1]) / d)
		case uint16(OpI32RemS):
			sp--
			d := int32(stack[sp])
			n := int32(stack[sp-1])
			if d == 0 {
				trap(TrapDivZero, "i32.rem_s")
			}
			if n == math.MinInt32 && d == -1 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] = uint64(uint32(n % d))
			}
		case uint16(OpI32RemU):
			sp--
			d := uint32(stack[sp])
			if d == 0 {
				trap(TrapDivZero, "i32.rem_u")
			}
			stack[sp-1] = uint64(uint32(stack[sp-1]) % d)
		case uint16(OpI32And):
			sp--
			stack[sp-1] = stack[sp-1] & stack[sp]
		case uint16(OpI32Or):
			sp--
			stack[sp-1] = stack[sp-1] | stack[sp]
		case uint16(OpI32Xor):
			sp--
			stack[sp-1] = stack[sp-1] ^ stack[sp]
		case uint16(OpI32Shl):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) << (uint32(stack[sp]) & 31))
		case uint16(OpI32ShrS):
			sp--
			stack[sp-1] = uint64(uint32(int32(stack[sp-1]) >> (uint32(stack[sp]) & 31)))
		case uint16(OpI32ShrU):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) >> (uint32(stack[sp]) & 31))
		case uint16(OpI32Rotl):
			sp--
			stack[sp-1] = uint64(bits.RotateLeft32(uint32(stack[sp-1]), int(uint32(stack[sp])&31)))
		case uint16(OpI32Rotr):
			sp--
			stack[sp-1] = uint64(bits.RotateLeft32(uint32(stack[sp-1]), -int(uint32(stack[sp])&31)))

		// --- i64 arithmetic ---
		case uint16(OpI64Clz):
			stack[sp-1] = uint64(bits.LeadingZeros64(stack[sp-1]))
		case uint16(OpI64Ctz):
			stack[sp-1] = uint64(bits.TrailingZeros64(stack[sp-1]))
		case uint16(OpI64Popcnt):
			stack[sp-1] = uint64(bits.OnesCount64(stack[sp-1]))
		case uint16(OpI64Add):
			sp--
			stack[sp-1] = stack[sp-1] + stack[sp]
		case uint16(OpI64Sub):
			sp--
			stack[sp-1] = stack[sp-1] - stack[sp]
		case uint16(OpI64Mul):
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp]
		case uint16(OpI64DivS):
			sp--
			d := int64(stack[sp])
			n := int64(stack[sp-1])
			if d == 0 {
				trap(TrapDivZero, "i64.div_s")
			}
			if n == math.MinInt64 && d == -1 {
				trap(TrapIntOverflow, "i64.div_s")
			}
			stack[sp-1] = uint64(n / d)
		case uint16(OpI64DivU):
			sp--
			if stack[sp] == 0 {
				trap(TrapDivZero, "i64.div_u")
			}
			stack[sp-1] = stack[sp-1] / stack[sp]
		case uint16(OpI64RemS):
			sp--
			d := int64(stack[sp])
			n := int64(stack[sp-1])
			if d == 0 {
				trap(TrapDivZero, "i64.rem_s")
			}
			if n == math.MinInt64 && d == -1 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] = uint64(n % d)
			}
		case uint16(OpI64RemU):
			sp--
			if stack[sp] == 0 {
				trap(TrapDivZero, "i64.rem_u")
			}
			stack[sp-1] = stack[sp-1] % stack[sp]
		case uint16(OpI64And):
			sp--
			stack[sp-1] = stack[sp-1] & stack[sp]
		case uint16(OpI64Or):
			sp--
			stack[sp-1] = stack[sp-1] | stack[sp]
		case uint16(OpI64Xor):
			sp--
			stack[sp-1] = stack[sp-1] ^ stack[sp]
		case uint16(OpI64Shl):
			sp--
			stack[sp-1] = stack[sp-1] << (stack[sp] & 63)
		case uint16(OpI64ShrS):
			sp--
			stack[sp-1] = uint64(int64(stack[sp-1]) >> (stack[sp] & 63))
		case uint16(OpI64ShrU):
			sp--
			stack[sp-1] = stack[sp-1] >> (stack[sp] & 63)
		case uint16(OpI64Rotl):
			sp--
			stack[sp-1] = bits.RotateLeft64(stack[sp-1], int(stack[sp]&63))
		case uint16(OpI64Rotr):
			sp--
			stack[sp-1] = bits.RotateLeft64(stack[sp-1], -int(stack[sp]&63))

		default:
			sp = in.runFloatOrFused(fn, i, stack, bp, sp)
		}
		pc++
	}
}

// brAdjust implements branch value transfer: keep the top keep slots,
// discard drop slots beneath them.
func brAdjust(stack []uint64, sp, drop, keep int) int {
	if drop == 0 {
		return sp
	}
	copy(stack[sp-keep-drop:sp-drop], stack[sp-keep:sp])
	return sp - drop
}

// Specialized linear-memory fast paths: one bounds check, a TLB-filtered
// EPC touch, and a direct fixed-width access with no intermediate slice
// header. mem is never nil here — validation rejects memory opcodes in
// modules that declare no memory, so these only execute with a memory
// present.
//
// memIndex bounds-checks and touches [base+offset, base+offset+n),
// returning the resolved address. The EPC-TLB hit test is open-coded
// here so a hot-page access costs a compare pair instead of a call into
// the touch machinery: an access misses only when the TLB is disabled,
// the span crosses a page boundary, the slot holds another page, or the
// paging generation has moved (an eviction or clock sweep happened).
func memIndex(mem *Memory, base, offset, n uint64) uint64 {
	addr := uint64(uint32(base)) + offset
	if addr+n > uint64(len(mem.data)) {
		trapOOB(addr, addr+n)
	}
	if mem.touch != nil {
		p := addr >> tlbPageBits
		e := &mem.tlb[p&tlbMask]
		// The generation load is atomic (a plain MOV on amd64 — the fast
		// path stays two compares) because evictions on another
		// instance's TCS bump it concurrently.
		if mem.gen == nil || e.tag != p+1 || e.gen != atomic.LoadUint64(mem.gen) ||
			(addr+n-1)>>tlbPageBits != p {
			mem.touchMiss(addr, n)
		}
	}
	return addr
}

// trapOOB is kept out of line so memIndex stays small.
func trapOOB(addr, end uint64) {
	trap(TrapOOB, "[%d,%d)", addr, end)
}

func memLoad8(mem *Memory, base, offset uint64) byte {
	return mem.data[memIndex(mem, base, offset, 1)]
}

func memLoad16(mem *Memory, base, offset uint64) uint16 {
	addr := memIndex(mem, base, offset, 2)
	return binary.LittleEndian.Uint16(mem.data[addr:])
}

func memLoad32(mem *Memory, base, offset uint64) uint32 {
	addr := memIndex(mem, base, offset, 4)
	return binary.LittleEndian.Uint32(mem.data[addr:])
}

func memLoad64(mem *Memory, base, offset uint64) uint64 {
	addr := memIndex(mem, base, offset, 8)
	return binary.LittleEndian.Uint64(mem.data[addr:])
}

func memStore8(mem *Memory, base, offset uint64, v byte) {
	mem.data[memIndex(mem, base, offset, 1)] = v
}

func memStore16(mem *Memory, base, offset uint64, v uint16) {
	addr := memIndex(mem, base, offset, 2)
	binary.LittleEndian.PutUint16(mem.data[addr:], v)
}

func memStore32(mem *Memory, base, offset uint64, v uint32) {
	addr := memIndex(mem, base, offset, 4)
	binary.LittleEndian.PutUint32(mem.data[addr:], v)
}

func memStore64(mem *Memory, base, offset uint64, v uint64) {
	addr := memIndex(mem, base, offset, 8)
	binary.LittleEndian.PutUint64(mem.data[addr:], v)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f32(v uint64) float32  { return math.Float32frombits(uint32(v)) }
func f64(v uint64) float64  { return math.Float64frombits(v) }
func pf32(f float32) uint64 { return uint64(math.Float32bits(f)) }
func pf64(f float64) uint64 { return math.Float64bits(f) }
