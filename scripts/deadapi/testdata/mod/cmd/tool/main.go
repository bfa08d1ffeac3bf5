package main

import (
	"flag"
	"fmt"

	"fix"
	"fix/impl"
)

func main() {
	fix.Used()
	var v impl.V
	flag.Var(&v, "v", "")
	var sh impl.Shape = impl.Sq{}
	fmt.Println(impl.E{}, impl.S{}, sh)
}
