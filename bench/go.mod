module github.com/moara/moara/bench

go 1.23

require github.com/moara/moara v0.0.0

replace github.com/moara/moara => ../
