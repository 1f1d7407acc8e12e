module pqfastscan/benchmark

go 1.24

require pqfastscan v0.0.0

replace pqfastscan => ../
