package lib

import "testing"

func TestUnused(t *testing.T) {
	Unused()
	hidden{}.Exported()
	Tune(&Knobs{TestOnly: 1})
}
