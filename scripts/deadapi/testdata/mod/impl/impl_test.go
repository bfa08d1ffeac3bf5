package impl

import "testing"

func TestPlanted(t *testing.T) {
	TestOnly()
	Allowed()
	_ = Sq{}.Perimeter()
}
