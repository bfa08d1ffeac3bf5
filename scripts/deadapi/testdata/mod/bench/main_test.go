package main

import (
	"testing"

	"fix/impl"
)

func TestBench(t *testing.T) { impl.BenchTestOnly() }
