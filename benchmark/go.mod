module parafile/benchmark

go 1.22

require parafile v0.0.0

replace parafile => ../
