module ccam/benchmark

go 1.22

require ccam v0.0.0

replace ccam => ../
