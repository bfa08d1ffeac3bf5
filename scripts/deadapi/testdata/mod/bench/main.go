package main

import "fix/impl"

func main() { impl.BenchUsed() }
