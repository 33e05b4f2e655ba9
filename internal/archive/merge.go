package archive

import (
	"fmt"

	"stinspector/internal/source"
	"stinspector/internal/trace"
)

// Merge consolidates several STA files into one, the operation needed
// when separate runs (recorded and archived independently, as the
// paper's SSF and FPP runs were) are to be analysed as a single
// event-log. Case identities must be disjoint across inputs.
func Merge(dst string, srcs ...string) error {
	if len(srcs) == 0 {
		return fmt.Errorf("archive: nothing to merge")
	}
	combined, err := trace.NewEventLog()
	if err != nil {
		return err
	}
	for _, path := range srcs {
		src, err := OpenSource(path, Options{})
		if err == nil {
			err = source.Walk(src, false, combined.Add)
			src.Close()
		}
		if err != nil {
			return fmt.Errorf("archive: merge %s: %w", path, err)
		}
	}
	return WriteFileV2(dst, combined)
}
