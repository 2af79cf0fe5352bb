package cpu

import "cgp/internal/isa"

// StaleSquashEntry returns a line the squash filter holds that is
// neither resident in L1I nor in flight; ok is false when every entry
// is true.
func (c *CPU) StaleSquashEntry() (line isa.Addr, ok bool) {
	for _, cl := range c.present {
		if cl == noLine {
			continue
		}
		line = isa.Addr(cl) << isa.LineShift
		if !c.l1i.Contains(cl) && c.fifo.lookup(line) == nil {
			return line, true
		}
	}
	return 0, false
}
