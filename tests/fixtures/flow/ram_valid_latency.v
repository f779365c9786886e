// RAM read path with a matched valid flag (L0402 negative fixture).
//
// `x` is written into an altsyncram (data_a -> q_a takes 2 cycles) and
// q_a is registered into `res`: 3 cycles from `x` to `res`. `res_valid`
// is x[0] delayed through three registers: also 3 cycles. Data and
// valid line up, so the valid/data skew check must stay quiet.
module ram_valid_latency (
    input wire clk,
    input wire [3:0] addr,
    input wire [7:0] x,
    output reg [7:0] res,
    output reg res_valid
);
    wire [7:0] q;
    reg v1;
    reg v2;

    altsyncram #(.WIDTH_A(8), .NUMWORDS_A(16)) ram (
        .clock0(clk), .address_a(addr), .data_a(x), .wren_a(1'b1), .q_a(q)
    );

    always @(posedge clk) begin
        res <= q;
        v1 <= x[0];
        v2 <= v1;
        res_valid <= v2;
    end
endmodule
