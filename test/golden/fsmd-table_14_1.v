module polysynth_fsmd (
  input  wire clk,
  input  wire rst,
  input  signed [15:0] x,
  input  signed [15:0] y,
  input  signed [15:0] z,
  output signed [15:0] P1,
  output signed [15:0] P2,
  output signed [15:0] P3,
  output wire done_o
);
  reg [3:0] state;
  reg signed [15:0] regs [0:3];
  assign done_o = (state == 4'd10);
  always @(posedge clk) begin
    if (rst) state <= 0;
    else if (!done_o) begin
      case (state)
        4'd0: begin
          regs[0] <= 16'd3 * y; // add unit 0
          regs[1] <= y * y; // mult unit 0
        end
        4'd1: begin
          regs[0] <= x + regs[0]; // add unit 0
        end
        4'd2: begin
          regs[2] <= 16'd2 * z; // add unit 0
          regs[3] <= x * regs[0]; // mult unit 0
        end
        4'd4: begin
          regs[1] <= regs[0] * regs[1]; // mult unit 0
        end
        4'd6: begin
          regs[0] <= regs[0] * regs[0]; // mult unit 0
          regs[1] <= 16'd4 * regs[1]; // add unit 0
        end
        4'd8: begin
          regs[2] <= regs[2] * regs[3]; // mult unit 0
        end
        default: ;
      endcase
      state <= state + 1;
    end
  end
  assign P1 = regs[0];
  assign P2 = regs[1];
  assign P3 = regs[2];
endmodule
