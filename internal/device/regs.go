package device

import (
	"errors"
	"fmt"

	"repro/internal/config"
)

// Reg identifies one device configuration/status register. The register
// set is carried forward from the 1.0 simulator's JTAG-accessible
// register file; the same registers are reachable in-band via MD_RD and
// MD_WR mode requests, whose ADRS field selects the register.
type Reg uint8

// Device registers.
const (
	// RegEDR0..RegEDR3 are the external data registers.
	RegEDR0 Reg = iota
	RegEDR1
	RegEDR2
	RegEDR3
	// RegERR is the error status register (write-1-to-clear).
	RegERR
	// RegGC is the global configuration register.
	RegGC
	// RegLC is the link configuration register.
	RegLC
	// RegLRLL is the link retry log (low).
	RegLRLL
	// RegGRLL is the global retry log (low).
	RegGRLL
	// RegVCR is the vault control register.
	RegVCR
	// RegFEAT is the read-only feature register encoding the device
	// organization.
	RegFEAT
	// RegRVID is the read-only revision/vendor ID register.
	RegRVID

	numRegs
)

var regNames = [numRegs]string{
	RegEDR0: "EDR0", RegEDR1: "EDR1", RegEDR2: "EDR2", RegEDR3: "EDR3",
	RegERR: "ERR", RegGC: "GC", RegLC: "LC", RegLRLL: "LRLL",
	RegGRLL: "GRLL", RegVCR: "VCR", RegFEAT: "FEAT", RegRVID: "RVID",
}

// String returns the register mnemonic.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("Reg(%d)", uint8(r))
}

// Register-file errors.
var (
	// ErrBadReg reports an out-of-range register index.
	ErrBadReg = errors.New("device: invalid register")
	// ErrReadOnlyReg reports a write to FEAT or RVID.
	ErrReadOnlyReg = errors.New("device: register is read-only")
)

// FEAT register field encoding.
const (
	featCapShift   = 0  // capacity in GB, 4 bits
	featVaultShift = 4  // vault count, 8 bits
	featBankShift  = 12 // banks per vault, 8 bits
	featLinkShift  = 20 // link count, 8 bits
)

// RVIDValue is the reset value of the revision/vendor ID register:
// vendor 0xF1 (simulated), product revision 2 (Gen2), protocol 2.1
// encoded as 0x21.
const RVIDValue uint64 = 0xF1<<16 | 0x02<<8 | 0x21

// RegFile is a device's configuration and status register file. Like
// the device, it belongs to the goroutine that drives the simulator.
type RegFile struct {
	vals [numRegs]uint64
}

func newRegFile(cfg config.Config) *RegFile {
	rf := &RegFile{}
	rf.seed(cfg)
	return rf
}

// seed writes the configuration-derived reset values.
func (rf *RegFile) seed(cfg config.Config) {
	rf.vals[RegFEAT] = uint64(cfg.CapacityGB)<<featCapShift |
		uint64(cfg.Vaults)<<featVaultShift |
		uint64(cfg.BanksPerVault)<<featBankShift |
		uint64(cfg.Links)<<featLinkShift
	rf.vals[RegRVID] = RVIDValue
}

// reset restores every register to its power-on value for cfg.
func (rf *RegFile) reset(cfg config.Config) {
	rf.vals = [numRegs]uint64{}
	rf.seed(cfg)
}

// Read returns the value of a register.
func (rf *RegFile) Read(r Reg) (uint64, error) {
	if r >= numRegs {
		return 0, fmt.Errorf("%w: %d", ErrBadReg, r)
	}
	return rf.vals[r], nil
}

// Write stores a value into a writable register. ERR is
// write-1-to-clear; FEAT and RVID reject writes.
func (rf *RegFile) Write(r Reg, v uint64) error {
	switch {
	case r >= numRegs:
		return fmt.Errorf("%w: %d", ErrBadReg, r)
	case r == RegFEAT || r == RegRVID:
		return fmt.Errorf("%w: %v", ErrReadOnlyReg, r)
	case r == RegERR:
		rf.vals[r] &^= v
		return nil
	default:
		rf.vals[r] = v
		return nil
	}
}

// PostError sets bits in the error status register; internal device
// faults report through it.
func (rf *RegFile) PostError(bits uint64) {
	rf.vals[RegERR] |= bits
}

// DecodeFEAT unpacks a FEAT register value into (capacity GB, vaults,
// banks per vault, links).
func DecodeFEAT(v uint64) (capGB, vaults, banks, links int) {
	return int(v >> featCapShift & 0xF),
		int(v >> featVaultShift & 0xFF),
		int(v >> featBankShift & 0xFF),
		int(v >> featLinkShift & 0xFF)
}
