package dalvik

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/kernel"
)

// Intrinsic is a JNI-style native method reachable from bytecode: the VM
// charges a JNI transition cost, then the native side charges its own
// (native) costs — exactly how the Android PassMark app reaches OpenGL ES
// and the storage stack.
type Intrinsic func(t *kernel.Thread, args []uint64) uint64

// VM is a Dalvik-style interpreting virtual machine instance.
type VM struct {
	cpu *hw.CPUModel
	// dispatchCycles is the interpreter's per-instruction fetch/decode/
	// dispatch overhead — the cost native code does not pay.
	dispatchCycles float64
	// jniCycles is the managed->native transition cost.
	jniCycles  float64
	intrinsics map[uint8]Intrinsic
	// executed counts interpreted instructions (diagnostics).
	executed uint64
}

// NewVM builds a VM for a CPU.
func NewVM(cpu *hw.CPUModel) *VM {
	return &VM{
		cpu:            cpu,
		dispatchCycles: 14, // Dalvik's interpreter loop per bytecode
		jniCycles:      260,
		intrinsics:     make(map[uint8]Intrinsic),
	}
}

// RegisterIntrinsic installs a native method under id.
func (vm *VM) RegisterIntrinsic(id uint8, fn Intrinsic) {
	vm.intrinsics[id] = fn
}

// Executed reports interpreted instruction count.
func (vm *VM) Executed() uint64 { return vm.executed }

// frame is one method activation.
type frame struct {
	regs   []uint64
	arrays map[uint64][]uint64
}

// Run interprets the named method with the given arguments (placed in the
// lowest registers). The calling thread is charged the interpretation
// cost: dispatch overhead per instruction plus the arithmetic cost of each
// operation on the device CPU.
func (vm *VM) Run(t *kernel.Thread, f *File, method string, args ...uint64) (uint64, error) {
	idx, ok := f.MethodIndex(method)
	if !ok {
		return 0, fmt.Errorf("dalvik: no method %q", method)
	}
	for i := range f.Methods {
		if err := f.Methods[i].verify(); err != nil {
			return 0, err
		}
	}
	return vm.call(t, f, idx, args, 0)
}

// Operand roles of each opcode, for the verifier.
const (
	regB1     uint8 = 1 << iota // byte 1 names a register
	regB2                       // byte 2 names a register
	regB3                       // byte 3 names a register
	extWord                     // one extension word follows
	branch                      // the extension word is an absolute branch target
	argWindow                   // registers [byte 3, byte 3 + ext) are call arguments
)

// opRoles gives each defined opcode's operand roles; the zero entry of an
// undefined opcode is right, since the interpreter rejects it at dispatch.
var opRoles = [numOps]uint8{
	OpConst:  regB1 | extWord,
	OpMove:   regB1 | regB2,
	OpAdd:    regB1 | regB2 | regB3,
	OpSub:    regB1 | regB2 | regB3,
	OpMul:    regB1 | regB2 | regB3,
	OpDiv:    regB1 | regB2 | regB3,
	OpRem:    regB1 | regB2 | regB3,
	OpXor:    regB1 | regB2 | regB3,
	OpAnd:    regB1 | regB2 | regB3,
	OpOr:     regB1 | regB2 | regB3,
	OpShl:    regB1 | regB2 | regB3,
	OpShr:    regB1 | regB2 | regB3,
	OpDAdd:   regB1 | regB2 | regB3,
	OpDMul:   regB1 | regB2 | regB3,
	OpDDiv:   regB1 | regB2 | regB3,
	OpI2D:    regB1 | regB2,
	OpCmp:    regB1 | regB2 | regB3,
	OpIf:     regB1 | extWord | branch,
	OpGoto:   extWord | branch,
	OpNewArr: regB1 | regB2,
	OpALoad:  regB1 | regB2 | regB3,
	OpAStore: regB1 | regB2 | regB3,
	OpArrLen: regB1 | regB2,
	OpInvoke: regB1 | extWord | argWindow,
	OpIntrin: regB1 | extWord | argWindow,
	OpReturn: regB1,
}

// verify checks a method before it runs, the way Android's dexopt does at
// install time: every register operand lies inside the frame, every
// extension word is present, every branch lands on an instruction, every
// OpIf condition is defined, and every call's argument window fits the
// frame. The interpreter then never indexes out of range, so malformed
// code is an error rather than a host panic. It charges no virtual time.
func (m *Method) verify() error {
	bad := func(pc int, what string) error {
		return fmt.Errorf("dalvik: verify %s: %s at %d", m.Name, what, pc)
	}
	if m.Registers < 0 {
		return bad(0, "negative frame size")
	}
	code := m.Code
	starts := make([]bool, len(code)+1)
	starts[len(code)] = true // falling off the end returns 0
	for pc := 0; pc < len(code); pc++ {
		starts[pc] = true
		w := code[pc]
		op := uint8(w)
		if op >= numOps {
			continue
		}
		roles := opRoles[op]
		for i, role := range [3]uint8{regB1, regB2, regB3} {
			if roles&role != 0 && int(uint8(w>>(8*(i+1)))) >= m.Registers {
				return bad(pc, "register operand outside the frame")
			}
		}
		if op == OpIf && uint8(w>>16) > IfLe {
			return bad(pc, "undefined branch condition")
		}
		if roles&extWord == 0 {
			continue
		}
		if pc+1 >= len(code) {
			return bad(pc, "missing extension word")
		}
		if roles&argWindow != 0 && int(uint8(w>>24))+int(code[pc+1]) > m.Registers {
			return bad(pc, "argument window outside the frame")
		}
		pc++
	}
	for pc := 0; pc < len(code); pc++ {
		op := uint8(code[pc])
		if op >= numOps || opRoles[op]&extWord == 0 {
			continue
		}
		pc++
		if opRoles[op]&branch != 0 {
			if target := int(int32(code[pc])); target < 0 || target > len(code) || !starts[target] {
				return bad(pc-1, "branch target off an instruction")
			}
		}
	}
	return nil
}

// maxDepth bounds recursion.
const maxDepth = 128

// chargeQuantum flushes accumulated cycles to the simulator.
const chargeQuantum = 20000

func (vm *VM) call(t *kernel.Thread, f *File, midx int, args []uint64, depth int) (uint64, error) {
	if depth > maxDepth {
		return 0, fmt.Errorf("dalvik: stack overflow")
	}
	m := &f.Methods[midx]
	fr := frame{regs: make([]uint64, m.Registers), arrays: make(map[uint64][]uint64)}
	copy(fr.regs, args)
	var pending float64
	charge := func(c float64) {
		pending += c
		if pending >= chargeQuantum {
			t.Charge(vm.cpu.Cycles(pending))
			pending = 0
		}
	}
	flush := func() {
		if pending > 0 {
			t.Charge(vm.cpu.Cycles(pending))
			pending = 0
		}
	}
	cpi := func(op hw.CPUOp) float64 { return vm.cpu.CPI[op] }

	pc := 0
	code := m.Code
	nextArrayID := uint64(1)
	for pc < len(code) {
		w := code[pc]
		op := uint8(w)
		b1, b2, b3 := uint8(w>>8), uint8(w>>16), uint8(w>>24)
		vm.executed++
		charge(vm.dispatchCycles)
		pc++
		switch op {
		case OpNop:
		case OpConst:
			fr.regs[b1] = uint64(int64(int32(code[pc])))
			pc++
			charge(cpi(hw.OpIntAdd))
		case OpMove:
			fr.regs[b1] = fr.regs[b2]
			charge(cpi(hw.OpIntAdd))
		case OpAdd:
			fr.regs[b1] = uint64(int64(fr.regs[b2]) + int64(fr.regs[b3]))
			charge(cpi(hw.OpIntAdd))
		case OpSub:
			fr.regs[b1] = uint64(int64(fr.regs[b2]) - int64(fr.regs[b3]))
			charge(cpi(hw.OpIntAdd))
		case OpMul:
			fr.regs[b1] = uint64(int64(fr.regs[b2]) * int64(fr.regs[b3]))
			charge(cpi(hw.OpIntMul))
		case OpDiv:
			d := int64(fr.regs[b3])
			if d == 0 {
				flush()
				return 0, fmt.Errorf("dalvik: divide by zero in %s", m.Name)
			}
			fr.regs[b1] = uint64(int64(fr.regs[b2]) / d)
			charge(cpi(hw.OpIntDiv))
		case OpRem:
			d := int64(fr.regs[b3])
			if d == 0 {
				flush()
				return 0, fmt.Errorf("dalvik: remainder by zero in %s", m.Name)
			}
			fr.regs[b1] = uint64(int64(fr.regs[b2]) % d)
			charge(cpi(hw.OpIntDiv))
		case OpXor:
			fr.regs[b1] = fr.regs[b2] ^ fr.regs[b3]
			charge(cpi(hw.OpIntAdd))
		case OpAnd:
			fr.regs[b1] = fr.regs[b2] & fr.regs[b3]
			charge(cpi(hw.OpIntAdd))
		case OpOr:
			fr.regs[b1] = fr.regs[b2] | fr.regs[b3]
			charge(cpi(hw.OpIntAdd))
		case OpShl:
			fr.regs[b1] = fr.regs[b2] << (fr.regs[b3] & 63)
			charge(cpi(hw.OpIntAdd))
		case OpShr:
			fr.regs[b1] = fr.regs[b2] >> (fr.regs[b3] & 63)
			charge(cpi(hw.OpIntAdd))
		case OpDAdd:
			fr.regs[b1] = math.Float64bits(math.Float64frombits(fr.regs[b2]) + math.Float64frombits(fr.regs[b3]))
			charge(cpi(hw.OpFloatAdd))
		case OpDMul:
			fr.regs[b1] = math.Float64bits(math.Float64frombits(fr.regs[b2]) * math.Float64frombits(fr.regs[b3]))
			charge(cpi(hw.OpFloatMul))
		case OpDDiv:
			fr.regs[b1] = math.Float64bits(math.Float64frombits(fr.regs[b2]) / math.Float64frombits(fr.regs[b3]))
			charge(cpi(hw.OpFloatDiv))
		case OpI2D:
			fr.regs[b1] = math.Float64bits(float64(int64(fr.regs[b2])))
			charge(cpi(hw.OpFloatAdd))
		case OpCmp:
			a, b := int64(fr.regs[b2]), int64(fr.regs[b3])
			switch {
			case a < b:
				fr.regs[b1] = uint64(math.MaxUint64) // -1
			case a > b:
				fr.regs[b1] = 1
			default:
				fr.regs[b1] = 0
			}
			charge(cpi(hw.OpIntAdd))
		case OpIf:
			target := int(int32(code[pc]))
			pc++
			v := int64(fr.regs[b1])
			taken := false
			switch b2 {
			case IfEq:
				taken = v == 0
			case IfNe:
				taken = v != 0
			case IfLt:
				taken = v < 0
			case IfGe:
				taken = v >= 0
			case IfGt:
				taken = v > 0
			case IfLe:
				taken = v <= 0
			}
			charge(cpi(hw.OpBranch))
			if taken {
				pc = target
			}
		case OpGoto:
			pc = int(int32(code[pc]))
			charge(cpi(hw.OpBranch))
		case OpNewArr:
			n := int64(fr.regs[b2])
			if n < 0 || n > 1<<24 {
				flush()
				return 0, fmt.Errorf("dalvik: bad array size %d", n)
			}
			id := nextArrayID
			nextArrayID++
			fr.arrays[id] = make([]uint64, n)
			fr.regs[b1] = id
			// Zeroing cost. The conversion rounds the quotient, so no
			// architecture may fuse it with the add into one FMA.
			charge(float64(float64(n)/8) + 40)
		case OpALoad:
			arr, ok := fr.arrays[fr.regs[b2]]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			i := int64(fr.regs[b3])
			if i < 0 || i >= int64(len(arr)) {
				flush()
				return 0, fmt.Errorf("dalvik: index %d out of range %d", i, len(arr))
			}
			fr.regs[b1] = arr[i]
			charge(cpi(hw.OpLoad))
		case OpAStore:
			arr, ok := fr.arrays[fr.regs[b1]]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			i := int64(fr.regs[b2])
			if i < 0 || i >= int64(len(arr)) {
				flush()
				return 0, fmt.Errorf("dalvik: index %d out of range %d", i, len(arr))
			}
			arr[i] = fr.regs[b3]
			charge(cpi(hw.OpStore))
		case OpArrLen:
			arr, ok := fr.arrays[fr.regs[b2]]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			fr.regs[b1] = uint64(len(arr))
			charge(cpi(hw.OpLoad))
		case OpInvoke:
			nargs := int(code[pc])
			pc++
			if int(b2) >= len(f.Methods) {
				flush()
				return 0, fmt.Errorf("dalvik: bad method index %d", b2)
			}
			callArgs := make([]uint64, nargs)
			copy(callArgs, fr.regs[b3:int(b3)+nargs])
			charge(60) // frame push/pop
			flush()
			ret, err := vm.call(t, f, int(b2), callArgs, depth+1)
			if err != nil {
				return 0, err
			}
			fr.regs[b1] = ret
		case OpIntrin:
			nargs := int(code[pc])
			pc++
			fn, ok := vm.intrinsics[b2]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: unknown intrinsic %d", b2)
			}
			callArgs := make([]uint64, nargs)
			copy(callArgs, fr.regs[b3:int(b3)+nargs])
			charge(vm.jniCycles)
			flush()
			fr.regs[b1] = fn(t, callArgs)
		case OpReturn:
			flush()
			return fr.regs[b1], nil
		default:
			flush()
			return 0, fmt.Errorf("dalvik: bad opcode %d at %d in %s", op, pc-1, m.Name)
		}
	}
	flush()
	return 0, nil
}
