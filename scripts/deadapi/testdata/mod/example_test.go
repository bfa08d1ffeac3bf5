package fix_test

import (
	"fmt"

	"fix"
	"fix/impl"
)

func ExampleReached() {
	fix.Reached()
	impl.ExampleOnly()
	fmt.Println("ok")
	// Output: ok
}

func ExampleUnchecked() {
	fix.Unchecked()
}
