module rotary/benchmark

go 1.23

require rotary v0.0.0

replace rotary => ../
